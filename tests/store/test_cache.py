"""Artifact cache: keying, round-trips, ownership-aware cleaning."""

import numpy as np
import pytest

from repro.errors import CacheError
from repro.graph import generators as gen
from repro.ordering import get_ordering
from repro.store import serialization as ser
from repro.store.cache import (
    ArtifactCache,
    artifact_key,
    array_fingerprint,
    default_cache,
    resolve_cache,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


class TestKeys:
    def test_deterministic(self):
        payload = {"dataset": "twitter", "params": {"scale": 0.5, "seed": 1}}
        assert artifact_key("graph", payload) == artifact_key("graph", dict(payload))

    def test_changes_with_any_parameter(self):
        base = {"dataset": "twitter", "params": {"scale": 0.5, "seed": 1}}
        k0 = artifact_key("graph", base)
        assert artifact_key("graph", {**base, "params": {"scale": 0.6, "seed": 1}}) != k0
        assert artifact_key("graph", {**base, "params": {"scale": 0.5, "seed": 2}}) != k0
        assert artifact_key("graph", {**base, "dataset": "orkut"}) != k0
        assert artifact_key("ordering", base) != k0  # kind is part of the key

    def test_key_order_insensitive(self):
        assert artifact_key("graph", {"a": 1, "b": 2}) == artifact_key(
            "graph", {"b": 2, "a": 1}
        )

    def test_rejects_unhashable_payload(self):
        with pytest.raises(CacheError):
            artifact_key("graph", {"fn": object()})

    def test_array_fingerprint_sensitive_to_content_and_dtype(self):
        a = np.arange(10, dtype=np.int64)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        b = a.copy()
        b[3] = 99
        assert array_fingerprint(a) != array_fingerprint(b)
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.int32))


class TestBundleRoundTrips:
    """A saved artifact loads back bit-identical."""

    def _store_load(self, cache, kind, arrays):
        cache.store(kind, "k" * 40, arrays)
        out = cache.load(kind, "k" * 40)
        assert out is not None
        return out

    def test_graph_bit_identical(self, cache, small_social):
        out = ser.unpack_graph(
            self._store_load(cache, "graph", ser.pack_graph(small_social))
        )
        assert np.array_equal(out.csr.offsets, small_social.csr.offsets)
        assert np.array_equal(out.csr.adj, small_social.csr.adj)
        assert np.array_equal(out.csc.offsets, small_social.csc.offsets)
        assert np.array_equal(out.csc.adj, small_social.csc.adj)
        assert out.name == small_social.name

    def test_ordering_bit_identical(self, cache, small_social):
        result = get_ordering("vebo")(small_social, num_partitions=16)
        out = ser.unpack_ordering(
            self._store_load(cache, "ordering", ser.pack_ordering(result))
        )
        assert np.array_equal(out.perm, result.perm)
        assert out.algorithm == result.algorithm
        assert out.seconds == pytest.approx(result.seconds)
        assert set(out.meta) == set(result.meta)
        for key, value in result.meta.items():
            if isinstance(value, np.ndarray):
                assert np.array_equal(out.meta[key], value), key
            else:
                assert out.meta[key] == value, key


class TestCacheBehaviour:
    def test_miss_returns_none(self, cache):
        assert cache.load("graph", "0" * 40) is None

    def test_get_or_build_hits_second_time(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"x": np.arange(4)}

        _, hit0 = cache.get_or_build("graph", "a" * 40, build)
        _, hit1 = cache.get_or_build("graph", "a" * 40, build)
        assert (hit0, hit1) == (False, True)
        assert len(calls) == 1

    def test_refresh_rebuilds(self, cache):
        calls = []

        def build():
            calls.append(1)
            return {"x": np.arange(4)}

        cache.get_or_build("graph", "a" * 40, build)
        cache.get_or_build("graph", "a" * 40, build, refresh=True)
        assert len(calls) == 2

    def test_refresh_replaces_a_corrupt_but_loadable_bundle(self, cache):
        """A same-size flip still loads as a hit; a refresh must swap the
        bundle out, not rebuild and then keep serving the flip."""
        key = "c" * 40
        cache.store("graph", key, {"x": np.arange(5)})
        member = cache.path_for("graph", key) / "a0000.npy"
        flipped = np.load(member)
        flipped[2] = 99
        np.save(member, flipped)
        assert cache.load("graph", key)["x"].tolist() == [0, 1, 99, 3, 4]
        arrays, hit = cache.get_or_build(
            "graph", key, lambda: {"x": np.arange(5)}, refresh=True
        )
        assert not hit and arrays["x"].tolist() == [0, 1, 2, 3, 4]
        assert cache.load("graph", key)["x"].tolist() == [0, 1, 2, 3, 4]

    def test_corrupt_manifest_is_a_miss_and_removed(self, cache):
        cache.store("graph", "b" * 40, {"x": np.arange(3)})
        path = cache.path_for("graph", "b" * 40)
        (path / "manifest.json").write_text("truncated garbage")
        assert cache.load("graph", "b" * 40) is None
        assert not path.exists()

    def test_corrupt_sidecar_is_a_miss_and_removed(self, cache):
        cache.store("graph", "b" * 40, {"x": np.arange(3)})
        path = cache.path_for("graph", "b" * 40)
        (path / "a0000.npy").write_bytes(b"truncated garbage")
        assert cache.load("graph", "b" * 40) is None
        assert not path.exists()

    @pytest.mark.parametrize("kind,member", [
        ("graph", "adj"), ("ordering", "perm"), ("trace", "ints")])
    def test_bundle_unpack_rejects_is_rebuilt_then_hit(self, cache, small_social,
                                                       kind, member):
        """A bundle whose manifest parses but whose arrays the kind's
        unpacker rejects is removed and rebuilt once; the next load is a
        hit on the rebuilt bundle (not a CacheError on every load)."""
        import json

        from repro import store
        from repro.experiments import execute

        load = {
            "graph": lambda: store.load_graph("usaroad", scale=0.02, cache=cache),
            "ordering": lambda: store.cached_ordering(small_social, "vebo", cache=cache,
                                                      num_partitions=8),
            "trace": lambda: execute(small_social, "CC", num_partitions=8, traces=cache),
        }[kind]
        load()
        [(_, key, _)] = [e for e in cache.entries() if e[0] == kind]
        manifest_path = cache.path_for(kind, key) / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["arrays"][member]
        manifest_path.write_text(json.dumps(manifest))
        builds = []
        real_store = cache.store
        cache.store = lambda *a, **k: builds.append(a[0]) or real_store(*a, **k)
        load()
        load()
        assert builds == [kind]
        assert member in json.loads(manifest_path.read_text())["arrays"]

    def test_unknown_kind_rejected(self, cache):
        with pytest.raises(CacheError):
            cache.path_for("nonsense", "a" * 40)
        with pytest.raises(CacheError):
            cache.clean(kind="nonsense")


class TestClean:
    def test_clean_removes_only_cache_owned_files(self, cache):
        cache.store("graph", "a" * 40, {"x": np.arange(3)})
        cache.store("ordering", "b" * 40, {"y": np.arange(3)})
        # Foreign files inside the cache tree must survive a clean.
        foreign_npz = cache.root / "graph" / "users_own.npz"
        np.savez(foreign_npz, data=np.arange(5))
        notes = cache.root / "graph" / "notes.txt"
        notes.write_text("do not delete")
        removed = cache.clean()
        assert len(removed) == 2
        assert foreign_npz.exists()
        assert notes.exists()
        assert cache.load("graph", "a" * 40) is None

    def test_clean_by_kind(self, cache):
        cache.store("graph", "a" * 40, {"x": np.arange(3)})
        cache.store("ordering", "b" * 40, {"y": np.arange(3)})
        removed = cache.clean(kind="ordering")
        assert len(removed) == 1
        assert cache.load("graph", "a" * 40) is not None

    def test_entries_and_size(self, cache):
        assert cache.entries() == []
        cache.store("graph", "a" * 40, {"x": np.arange(3)})
        entries = cache.entries()
        assert [(k, key) for k, key, _ in entries] == [("graph", "a" * 40)]
        assert cache.size_bytes() > 0


class TestResolveCache:
    def test_false_disables(self):
        assert resolve_cache(False) is None

    def test_explicit_instance_passthrough(self, cache):
        assert resolve_cache(cache) is cache

    def test_none_uses_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "root"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        resolved = resolve_cache(None)
        assert resolved is not None
        assert resolved.root == tmp_path / "root"
        assert resolve_cache(True) is resolved

    def test_cache_off_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_OFF", "1")
        assert resolve_cache(None) is None
        assert resolve_cache(True) is None

    def test_default_cache_follows_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        assert default_cache().root == tmp_path / "a"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        assert default_cache().root == tmp_path / "b"
