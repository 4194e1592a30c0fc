"""Dataset registry + store-level caching semantics."""

import numpy as np
import pytest

from repro import store
from repro.errors import DatasetError
from repro.graph import datasets as standins
from repro.graph import generators as gen
from repro.store.cache import ArtifactCache
from repro.store.registry import (
    DATASET_REGISTRY,
    register_dataset,
    register_file_dataset,
    register_sharded_dataset,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "cache")


@pytest.fixture
def counting_dataset(monkeypatch):
    """A registered dataset whose builder counts its invocations."""
    calls = []

    def builder(scale: float = 1.0, seed: int = 0):
        calls.append((scale, seed))
        return gen.zipf_powerlaw_graph(
            max(64, int(200 * scale)), s=1.1, max_degree=20, seed=seed,
            name="counted",
        )

    name = "_test_counted"
    monkeypatch.delitem(DATASET_REGISTRY, name, raising=False)
    spec = register_dataset(
        name, builder, description="test", defaults={"scale": 1.0, "seed": 0}
    )
    yield name, calls
    DATASET_REGISTRY.pop(name, None)
    return spec


class TestRegistry:
    def test_standins_registered(self):
        for name in standins.STANDIN_SPECS:
            assert name in DATASET_REGISTRY
        listed = store.available_datasets()
        assert listed[: len(standins.DEFAULT_SUITE)] == list(standins.DEFAULT_SUITE)

    def test_out_of_core_spec_registered(self):
        spec = store.get_dataset("powerlaw-ooc")
        assert spec.source == "generated"
        assert set(spec.defaults) == {"scale", "seed", "shards"}

    def test_unknown_dataset_raises_typed_error(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            store.get_dataset("no-such-graph")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(DatasetError, match="already registered"):
            register_dataset("twitter", lambda: None)

    def test_unknown_build_parameter_rejected(self):
        spec = store.get_dataset("twitter")
        with pytest.raises(DatasetError, match="does not accept"):
            spec.resolve_params(sclae=0.5)  # typo must not create a new key

    def test_build_matches_direct_generator(self):
        a = store.get_dataset("twitter").build(scale=0.05, seed=7)
        b = standins.load("twitter", scale=0.05, seed=7)
        assert a.csr == b.csr and a.csc == b.csc


class TestLoadGraphCaching:
    def test_second_load_runs_no_build_work(self, cache, counting_dataset):
        name, calls = counting_dataset
        g1 = store.load_graph(name, scale=0.5, cache=cache)
        assert len(calls) == 1
        g2 = store.load_graph(name, scale=0.5, cache=cache)
        assert len(calls) == 1  # cache hit: builder untouched
        assert g1.csr == g2.csr and g1.csc == g2.csc

    def test_standin_second_load_runs_no_generator(self, cache, monkeypatch):
        real = standins.STANDIN_SPECS["twitter"]
        calls = []

        def counting_factory(scale, seed):
            calls.append(1)
            return real.factory(scale, seed)

        monkeypatch.setitem(
            standins.STANDIN_SPECS,
            "twitter",
            standins.StandinSpec(real.paper_name, real.description, counting_factory),
        )
        store.load_graph("twitter", scale=0.05, cache=cache)
        store.load_graph("twitter", scale=0.05, cache=cache)
        assert len(calls) == 1

    def test_parameters_change_the_key(self, cache, counting_dataset):
        name, calls = counting_dataset
        store.load_graph(name, scale=0.5, cache=cache)
        store.load_graph(name, scale=0.6, cache=cache)
        store.load_graph(name, scale=0.5, seed=9, cache=cache)
        assert len(calls) == 3
        assert len(cache.entries()) == 3

    def test_refresh_rebuilds(self, cache, counting_dataset):
        name, calls = counting_dataset
        store.load_graph(name, cache=cache)
        store.load_graph(name, cache=cache, refresh=True)
        assert len(calls) == 2

    def test_cache_false_always_builds(self, counting_dataset):
        name, calls = counting_dataset
        store.load_graph(name, cache=False)
        store.load_graph(name, cache=False)
        assert len(calls) == 2

    def test_datasets_load_cache_param_routes_through_store(self, cache, monkeypatch):
        real = standins.STANDIN_SPECS["usaroad"]
        calls = []

        def counting_factory(scale, seed):
            calls.append(1)
            return real.factory(scale, seed)

        monkeypatch.setitem(
            standins.STANDIN_SPECS,
            "usaroad",
            standins.StandinSpec(real.paper_name, real.description, counting_factory),
        )
        standins.load("usaroad", scale=0.05, cache=cache)
        standins.load("usaroad", scale=0.05, cache=cache)
        assert len(calls) == 1


class TestFileDatasets:
    def test_file_dataset_roundtrip_and_digest_keying(self, tmp_path, cache):
        path = tmp_path / "mini.txt"
        path.write_text("# Nodes: 4 Edges: 3\n0 1\n1 2\n2 3\n")
        name = "_test_file_ds"
        DATASET_REGISTRY.pop(name, None)
        try:
            spec = register_file_dataset(name, path, fmt="edgelist")
            g = store.load_graph(name, cache=cache)
            assert g.num_vertices == 4 and g.num_edges == 3
            key_before = store.artifact_key("graph", spec.cache_payload())
            # Editing the file must change the cache key (stale-proofing).
            path.write_text("# Nodes: 4 Edges: 2\n0 1\n1 2\n")
            key_after = store.artifact_key("graph", spec.cache_payload())
            assert key_before != key_after
            g2 = store.load_graph(name, cache=cache)
            assert g2.num_edges == 2
        finally:
            DATASET_REGISTRY.pop(name, None)

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(DatasetError, match="unknown dataset format"):
            register_file_dataset("_test_badfmt", tmp_path / "x", fmt="parquet")
        DATASET_REGISTRY.pop("_test_badfmt", None)

    def test_missing_file_digest_raises_typed_error(self, tmp_path):
        name = "_test_missing_file"
        DATASET_REGISTRY.pop(name, None)
        try:
            spec = register_file_dataset(name, tmp_path / "gone.txt")
            with pytest.raises(DatasetError, match="cannot digest"):
                spec.cache_payload()
        finally:
            DATASET_REGISTRY.pop(name, None)


class TestDerivedArtifacts:
    def test_cached_ordering_hits_and_is_identical(self, cache, small_social):
        r1 = store.cached_ordering(small_social, "vebo", num_partitions=8, cache=cache)
        r2 = store.cached_ordering(small_social, "vebo", num_partitions=8, cache=cache)
        assert np.array_equal(r1.perm, r2.perm)
        assert np.array_equal(r1.meta["boundaries"], r2.meta["boundaries"])
        assert len([e for e in cache.entries() if e[0] == "ordering"]) == 1

    def test_cached_ordering_keys_on_graph_content(self, cache, small_social, small_grid):
        store.cached_ordering(small_social, "vebo", num_partitions=8, cache=cache)
        store.cached_ordering(small_grid, "vebo", num_partitions=8, cache=cache)
        assert len([e for e in cache.entries() if e[0] == "ordering"]) == 2

    def test_prepare_with_cache(self, cache, small_social):
        from repro.experiments.runner import prepare

        p1 = prepare(small_social, "vebo", 8, cache=cache)
        p2 = prepare(small_social, "vebo", 8, cache=cache)
        assert np.array_equal(p1.perm, p2.perm)
        assert np.array_equal(p1.boundaries, p2.boundaries)
        assert p1.graph.csr == p2.graph.csr


class TestShardedDatasets:
    def _write_shards(self, tmp_path, src, dst, pieces):
        paths = []
        step = len(src) // pieces
        for s in range(pieces):
            p = tmp_path / f"shard{s}.txt"
            lo, hi = s * step, (s + 1) * step if s < pieces - 1 else len(src)
            p.write_text(
                "".join(f"{a}\t{b}\n" for a, b in zip(src[lo:hi], dst[lo:hi]))
            )
            paths.append(p)
        return paths

    def test_sharded_build_matches_eager(self, tmp_path, cache):
        rng = np.random.default_rng(21)
        src = rng.integers(0, 40, 300)
        dst = rng.integers(0, 40, 300)
        paths = self._write_shards(tmp_path, src, dst, 3)
        DATASET_REGISTRY.pop("_test_shards", None)
        try:
            register_sharded_dataset("_test_shards", paths, num_vertices=40)
            g = store.load_graph("_test_shards", cache=cache)
            from repro.graph.csr import Graph

            eager = Graph.from_edges(src, dst, 40)
            assert np.array_equal(np.asarray(g.csr.adj), eager.csr.adj)
            assert np.array_equal(np.asarray(g.csc.adj), eager.csc.adj)
        finally:
            DATASET_REGISTRY.pop("_test_shards", None)

    def test_fingerprint_covers_every_shard(self, tmp_path, cache):
        rng = np.random.default_rng(22)
        src = rng.integers(0, 20, 90)
        dst = rng.integers(0, 20, 90)
        paths = self._write_shards(tmp_path, src, dst, 3)
        DATASET_REGISTRY.pop("_test_shards", None)
        try:
            spec = register_sharded_dataset("_test_shards", paths, num_vertices=20)
            before = spec.cache_payload()
            paths[-1].write_text("0\t1\n")  # edit the *last* shard
            after = spec.cache_payload()
            assert before != after
        finally:
            DATASET_REGISTRY.pop("_test_shards", None)

    def test_empty_shard_list_rejected(self):
        with pytest.raises(DatasetError, match="at least one shard"):
            register_sharded_dataset("_test_none", [])
