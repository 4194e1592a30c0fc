"""CLI: datasets subcommands and the legacy reorder interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph import generators as gen
from repro.graph.io import read_adjacency_graph, write_adjacency_graph


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
    return root


class TestDatasetsCommands:
    def test_list_names_all_registered(self, cache_dir, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("twitter", "friendster", "usaroad", "rmat"):
            assert name in out
        assert str(cache_dir) in out

    def test_build_populates_cache_and_clean_empties_it(self, cache_dir, capsys):
        assert main(["datasets", "build", "usaroad", "--scale", "0.05"]) == 0
        bundles = list(cache_dir.rglob("manifest.json"))
        assert len(bundles) == 1
        assert main(["datasets", "clean"]) == 0
        assert list(cache_dir.rglob("manifest.json")) == []
        out = capsys.readouterr().out
        assert "removed 1 artifact" in out

    def test_build_with_partition_and_edge_order(self, cache_dir, capsys):
        code = main(["datasets", "build", "usaroad", "--scale", "0.05", "-p", "8"])
        assert code == 0
        kinds = {p.parent.parent.name for p in cache_dir.rglob("manifest.json")}
        assert kinds == {"graph", "ordering"}
        assert "vebo-partition(P=8)" in capsys.readouterr().out

    def test_partitions_flag_warms_the_ordering_prepare_reads(
        self, cache_dir, capsys, monkeypatch
    ):
        from repro import store
        from repro.experiments import prepare
        from repro.ordering.base import ORDERING_REGISTRY

        assert main(["datasets", "build", "twitter", "--scale", "0.05", "-p", "8"]) == 0
        runs = []
        vebo = ORDERING_REGISTRY["vebo"]
        monkeypatch.setitem(
            ORDERING_REGISTRY, "vebo", lambda *a, **k: runs.append(k) or vebo(*a, **k)
        )
        cache = store.ArtifactCache(cache_dir)
        graph = store.load_graph("twitter", scale=0.05, seed=12345, cache=cache)
        prep = prepare(graph, "vebo", 8, cache=cache)
        assert runs == []
        assert prep.boundaries.size == 9
        kinds = {p.parent.parent.name for p in cache_dir.rglob("manifest.json")}
        assert kinds == {"graph", "ordering"}

    def test_clean_kind_offers_only_stored_kinds(self, cache_dir, capsys):
        for kind in ("partition", "edgeorder"):
            with pytest.raises(SystemExit) as exc:
                main(["datasets", "clean", "--kind", kind])
            assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["datasets", "build", "--help"])
        assert "--edge-order" not in capsys.readouterr().out

    def test_retired_kind_bundles_are_listed_and_left(self, cache_dir, capsys):
        """A ``partition/`` bundle from before that kind was retired:
        ``list`` counts it and its bytes, ``clean`` says it leaves it.
        Directories without the manifest magic are not counted."""
        import json

        from repro.store import ArtifactCache
        from repro.store.cache import MAGIC_VALUE_V2, MANIFEST_NAME

        assert main(["datasets", "build", "usaroad", "--scale", "0.05"]) == 0
        bundle = cache_dir / "partition" / ("ab" * 20)
        bundle.mkdir(parents=True)
        (bundle / MANIFEST_NAME).write_text(json.dumps({"magic": MAGIC_VALUE_V2}))
        np.save(bundle / "a0000.npy", np.arange(100, dtype=np.int64))
        size = sum(p.stat().st_size for p in bundle.iterdir())
        (cache_dir / "partition" / "notes").mkdir()          # no manifest
        (cache_dir / "mine").mkdir()
        (cache_dir / "mine" / "x.txt").write_text("foreign")
        assert ArtifactCache(cache_dir).retired_entries() == [
            ("partition", bundle.name, size)]
        capsys.readouterr()

        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        assert "(1 artifact(s))" in out
        assert f"retired kinds: 1 bundle(s), {size} bytes in partition/" in out
        assert main(["datasets", "clean"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 artifact(s)" in out
        assert f"retired kinds: 1 bundle(s), {size} bytes in partition/" in out
        assert (bundle / MANIFEST_NAME).is_file()
        assert (cache_dir / "mine" / "x.txt").is_file()

    def test_build_custom_dataset_without_scale_seed_params(self, cache_dir, capsys):
        from repro.graph import generators as gen
        from repro.store.registry import DATASET_REGISTRY, register_dataset

        DATASET_REGISTRY.pop("_test_chain", None)
        try:
            register_dataset(
                "_test_chain", lambda n=8: gen.chain_graph(n), defaults={"n": 8}
            )
            assert main(["datasets", "build", "_test_chain"]) == 0
            assert "_test_chain: n=8" in capsys.readouterr().out
        finally:
            DATASET_REGISTRY.pop("_test_chain", None)

    def test_list_does_not_digest_file_datasets(self, cache_dir, tmp_path, capsys, monkeypatch):
        from repro.store import registry
        from repro.store.registry import DATASET_REGISTRY, register_file_dataset

        path = tmp_path / "big.txt"
        path.write_text("0 1\n")
        DATASET_REGISTRY.pop("_test_big", None)
        try:
            register_file_dataset("_test_big", path)

            def boom(*a, **k):  # pragma: no cover - must not be reached
                raise AssertionError("list must not hash dataset files")

            monkeypatch.setattr(registry, "file_digest", boom)
            assert main(["datasets", "list"]) == 0
            out = capsys.readouterr().out
            assert "_test_big" in out
        finally:
            DATASET_REGISTRY.pop("_test_big", None)

    def test_mmap_flag_replays_warm_cache(self, cache_dir, capsys):
        import os

        before = os.environ.get("REPRO_MMAP")
        assert main(["datasets", "build", "usaroad", "--scale", "0.05"]) == 0
        assert main(["--mmap", "datasets", "build", "usaroad", "--scale", "0.05"]) == 0
        # the flag exports REPRO_MMAP for the invocation only, restoring
        # whatever the suite-level environment had before
        assert os.environ.get("REPRO_MMAP") == before

    def test_build_out_of_core_dataset(self, cache_dir, capsys):
        assert main(["datasets", "build", "powerlaw-ooc", "--scale", "0.02"]) == 0
        assert list(cache_dir.rglob("manifest.json"))

    def test_build_unknown_dataset_fails_cleanly(self, cache_dir, capsys):
        assert main(["datasets", "build", "no-such-graph"]) == 1
        assert "no-such-graph" in capsys.readouterr().err

    def test_clean_spares_foreign_files(self, cache_dir, capsys):
        main(["datasets", "build", "usaroad", "--scale", "0.05"])
        foreign = cache_dir / "graph" / "mine.npz"
        np.savez(foreign, x=np.arange(3))
        main(["datasets", "clean"])
        assert foreign.exists()

    def test_no_cache_flag_builds_nothing_on_disk(self, cache_dir, capsys):
        assert main(["datasets", "build", "usaroad", "--scale", "0.05", "--no-cache"]) == 0
        assert not cache_dir.exists()

    def test_cache_dir_flag_overrides_env(self, tmp_path, cache_dir, capsys):
        other = tmp_path / "other"
        assert main([
            "datasets", "build", "usaroad", "--scale", "0.05",
            "--cache-dir", str(other),
        ]) == 0
        assert list(other.rglob("manifest.json"))
        assert not cache_dir.exists()


class TestLegacyReorder:
    def _write_graph(self, tmp_path):
        g = gen.zipf_powerlaw_graph(120, s=1.1, max_degree=12, seed=2, name="g")
        path = tmp_path / "in.adj"
        write_adjacency_graph(g, path)
        return g, path

    def test_subcommandless_invocation_still_works(self, tmp_path, capsys):
        g, inp = self._write_graph(tmp_path)
        out = tmp_path / "out.adj"
        assert main([str(inp), str(out), "-p", "8", "-q"]) == 0
        reordered = read_adjacency_graph(out)
        assert reordered.num_edges == g.num_edges

    def test_options_before_positionals(self, tmp_path, capsys):
        g, inp = self._write_graph(tmp_path)
        out = tmp_path / "out.adj"
        assert main(["-p", "8", "-q", str(inp), str(out)]) == 0
        assert out.exists()

    def test_explicit_reorder_subcommand(self, tmp_path, capsys):
        g, inp = self._write_graph(tmp_path)
        out = tmp_path / "out.adj"
        assert main(["reorder", str(inp), str(out), "-p", "8"]) == 0
        report = capsys.readouterr().out
        assert "edge balance" in report

    @pytest.mark.parametrize("algorithm", ["vebo", "rcm"])
    def test_reorder_output_is_pinned(self, tmp_path, capsys, algorithm):
        """The written graph is the ordering applied to the input, and the
        balance lines are those of VEBO's own cuts (vebo) or Algorithm 1's
        (every other ordering)."""
        from repro.ordering import apply_ordering, get_ordering
        from repro.partition.algorithm1 import chunk_boundaries
        from repro.partition.stats import compute_stats

        _, inp = self._write_graph(tmp_path)
        out = tmp_path / "out.adj"
        assert main(["reorder", str(inp), str(out), "-p", "8", "-a", algorithm]) == 0
        report = capsys.readouterr().out

        g = read_adjacency_graph(inp)
        kwargs = {"num_partitions": 8} if algorithm == "vebo" else {}
        result = get_ordering(algorithm)(g, **kwargs)
        reordered = apply_ordering(g, result)
        expected = tmp_path / "expected.adj"
        write_adjacency_graph(reordered, expected)
        assert out.read_bytes() == expected.read_bytes()

        if algorithm == "vebo":
            boundaries = result.meta["boundaries"]
        else:
            boundaries = chunk_boundaries(reordered.in_degrees(), 8)
        stats = compute_stats(reordered, boundaries)
        assert f"edge balance   Delta(n) = {stats.edge_imbalance()}\n" in report
        assert f"vertex balance delta(n) = {stats.vertex_imbalance()}\n" in report

    def test_help_epilog_documents_cache_env_vars(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "REPRO_CACHE_DIR" in out
        assert "REPRO_CACHE_OFF" in out
