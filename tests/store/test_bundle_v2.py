"""Bundle format v2: sidecar layout, v1 leftovers, mmap, read-only contract."""

import json

import numpy as np
import pytest

from repro.ordering import get_ordering
from repro.store import serialization as ser
from repro.store.cache import (
    ArtifactCache,
    BUNDLE_VERSION,
    MAGIC_VALUE_V2,
    MANIFEST_NAME,
    mmap_enabled,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def mmap_on(monkeypatch):
    monkeypatch.setenv("REPRO_MMAP", "1")


def _pack_all_kinds(graph):
    """One packed bundle per content-addressed artifact kind."""
    from repro.experiments.runner import execute

    ordering = get_ordering("vebo")(graph, num_partitions=8)
    execution = execute(graph, "CC", ordering="original", num_partitions=8,
                        cache=False, traces=False)
    from repro.store.traces import pack_trace

    return {
        "graph": ser.pack_graph(graph),
        "ordering": ser.pack_ordering(ordering),
        "trace": pack_trace(execution.trace, execution.iterations),
    }


class TestV2Layout:
    def test_store_writes_manifest_and_sidecars(self, cache, small_grid):
        arrays = ser.pack_graph(small_grid)
        path = cache.store("graph", "a" * 40, arrays)
        assert path.is_dir()
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest["magic"] == MAGIC_VALUE_V2
        assert manifest["version"] == BUNDLE_VERSION
        assert set(manifest["arrays"]) == set(arrays)
        for fname in manifest["arrays"].values():
            member = path / fname
            assert member.suffix == ".npy"
            assert member.is_file()

    def test_array_names_with_dots_survive(self, cache):
        arrays = {"meta.some.dotted.name": np.arange(4), "plain": np.arange(2)}
        cache.store("ordering", "a" * 40, arrays)
        out = cache.load("ordering", "a" * 40)
        assert set(out) == set(arrays)
        assert np.array_equal(out["meta.some.dotted.name"], np.arange(4))

    def test_store_keeps_existing_bundle(self, cache):
        # Keys are content digests, so two writers of one key carry
        # equivalent bytes: the first bundle stands and is never removed
        # from under concurrent readers.
        cache.store("graph", "a" * 40, {"x": np.arange(3), "y": np.arange(5)})
        cache.store("graph", "a" * 40, {"x": np.arange(7)})
        out = cache.load("graph", "a" * 40)
        assert set(out) == {"x", "y"}
        assert np.array_equal(out["x"], np.arange(3))

    def test_store_evicts_foreign_directory(self, cache):
        path = cache.path_for("graph", "a" * 40)
        path.mkdir(parents=True)
        (path / "stray.txt").write_text("not ours")
        cache.store("graph", "a" * 40, {"x": np.arange(7)})
        out = cache.load("graph", "a" * 40)
        assert set(out) == {"x"}
        assert not (path / "stray.txt").exists()

    def test_unsafe_manifest_member_is_rejected(self, cache):
        path = cache.store("graph", "a" * 40, {"x": np.arange(3)})
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest["arrays"]["evil"] = "../escape.npy"
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        assert cache.load("graph", "a" * 40) is None


class TestLegacyV1Miss:
    """Bundle format v1 (one ``<key>.npz`` per artifact) is no longer read:
    an ``.npz`` at a key, written by the old cache or by anyone else, is a
    clean miss, rebuilt as a v2 bundle beside it and otherwise ignored."""

    @pytest.mark.parametrize("marker", [
        pytest.param({"__repro_cache__": np.array("repro-artifact-v1")},
                     id="v1-marker"),
        pytest.param({}, id="foreign"),
    ])
    def test_npz_at_key_is_a_clean_miss(self, cache, marker):
        key = "d" * 40
        npz = cache.root / "graph" / f"{key}.npz"
        npz.parent.mkdir(parents=True)
        np.savez(npz, x=np.arange(3), **marker)
        before = npz.read_bytes()

        assert cache.load("graph", key) is None
        assert not cache.has("graph", key)
        assert cache.entries() == []
        assert cache.clean() == []

        _, hit = cache.get_or_build("graph", key, lambda: {"x": np.arange(5)})
        assert not hit
        assert cache.has("graph", key)
        manifest = json.loads(
            (cache.path_for("graph", key) / MANIFEST_NAME).read_text()
        )
        assert manifest["version"] == BUNDLE_VERSION
        assert np.array_equal(cache.load("graph", key)["x"], np.arange(5))
        assert [(kind, k) for kind, k, _ in cache.entries()] == [("graph", key)]
        assert cache.clean() == [cache.path_for("graph", key)]
        assert npz.read_bytes() == before


class TestReadOnlyContract:
    """Every artifact kind comes back writeable=False, mmapped or not."""

    @pytest.fixture(scope="class")
    def kind_bundles(self, request):
        from repro.graph import generators as gen

        graph = gen.zipf_powerlaw_graph(
            200, s=1.1, max_degree=24, seed=7, name="romap"
        )
        return _pack_all_kinds(graph)

    @pytest.mark.parametrize("kind", ["graph", "ordering", "trace"])
    def test_load_returns_read_only(self, cache, kind_bundles, kind):
        cache.store(kind, "e" * 40, kind_bundles[kind])
        out = cache.load(kind, "e" * 40)
        assert out, kind
        for name, arr in out.items():
            assert not arr.flags.writeable, f"{kind}:{name}"
            with pytest.raises((ValueError, RuntimeError)):
                arr[...] = 0

    @pytest.mark.parametrize("kind", ["graph", "ordering", "trace"])
    def test_load_mmap_read_only_and_bit_identical(
        self, cache, kind_bundles, kind, mmap_on
    ):
        assert mmap_enabled()
        cache.store(kind, "e" * 40, kind_bundles[kind])
        out = cache.load(kind, "e" * 40)
        assert out, kind
        assert any(isinstance(a, np.memmap) for a in out.values()), kind
        for name, arr in out.items():
            assert not arr.flags.writeable, f"{kind}:{name}"
            assert np.array_equal(np.asarray(arr), kind_bundles[kind][name]), (
                f"{kind}:{name}"
            )

    def test_mutating_copy_does_not_corrupt_later_hits(self, cache):
        cache.store("graph", "f" * 40, {"x": np.arange(6)})
        first = cache.load("graph", "f" * 40)
        scratch = np.array(first["x"])  # the documented mutate-a-copy path
        scratch += 100
        second = cache.load("graph", "f" * 40)
        assert np.array_equal(second["x"], np.arange(6))


class TestMmapEndToEnd:
    def test_warm_load_graph_is_bit_identical_and_mapped(
        self, tmp_path, monkeypatch
    ):
        from repro import store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        monkeypatch.delenv("REPRO_MMAP", raising=False)
        eager = store.load_graph("usaroad", scale=0.05)  # cold: builds + stores
        warm_eager = store.load_graph("usaroad", scale=0.05)
        monkeypatch.setenv("REPRO_MMAP", "1")
        warm_mapped = store.load_graph("usaroad", scale=0.05)
        for a, b in (
            (warm_eager.csr.offsets, eager.csr.offsets),
            (warm_eager.csr.adj, eager.csr.adj),
            (warm_mapped.csr.offsets, eager.csr.offsets),
            (warm_mapped.csr.adj, eager.csr.adj),
            (warm_mapped.csc.offsets, eager.csc.offsets),
            (warm_mapped.csc.adj, eager.csc.adj),
        ):
            assert np.array_equal(np.asarray(a), np.asarray(b))
        # The mmapped graph borrows the on-disk buffers: no writable copy.
        assert isinstance(warm_mapped.csr.adj.base, np.memmap) or isinstance(
            warm_mapped.csr.adj, np.memmap
        )
        assert not warm_mapped.csr.adj.flags.writeable

    def test_derived_artifacts_replay_identically_under_mmap(
        self, tmp_path, monkeypatch
    ):
        from repro import store

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        monkeypatch.delenv("REPRO_MMAP", raising=False)
        graph = store.load_graph("usaroad", scale=0.05)
        ordering = store.cached_ordering(graph, "vebo", num_partitions=8)
        monkeypatch.setenv("REPRO_MMAP", "1")
        graph_m = store.load_graph("usaroad", scale=0.05)
        ordering_m = store.cached_ordering(graph_m, "vebo", num_partitions=8)
        assert np.array_equal(np.asarray(ordering_m.perm), ordering.perm)
        # VEBO on a borrowed mmapped graph must also *recompute* identically.
        recomputed = get_ordering("vebo")(graph_m, num_partitions=8)
        assert np.array_equal(np.asarray(recomputed.perm), ordering.perm)
