"""Integration tests for the experiment runner and the CLI."""

import numpy as np
import pytest

from repro.errors import ResultsError, SimulationError
from repro.experiments import execute, prepare, price, run
from repro.graph import generators as gen
from repro.graph.io import write_adjacency_graph, read_adjacency_graph
from repro.ordering import get_ordering
from repro.ordering.base import ORDERING_REGISTRY
from repro.partition.algorithm1 import chunk_boundaries


@pytest.fixture(scope="module")
def g():
    return gen.zipf_powerlaw_graph(
        800, s=1.2, max_degree=30, zero_in_fraction=0.1,
        degree_locality=0.5, neighbor_locality=0.4, source_skew=0.9,
        seed=23, name="runner",
    )


class TestPrepare:
    def test_vebo_has_boundaries(self, g):
        prep = prepare(g, "vebo", 48)
        assert prep.boundaries.size == 49

    def test_original_identity(self, g):
        prep = prepare(g, "original", 48)
        assert np.array_equal(prep.perm, np.arange(g.num_vertices))
        assert np.array_equal(
            prep.boundaries, chunk_boundaries(prep.graph.in_degrees(), 48)
        )

    def test_orig_ids_invert_perm(self, g):
        prep = prepare(g, "random", 48)
        assert np.array_equal(prep.perm[prep.orig_ids], np.arange(g.num_vertices))

    @pytest.mark.parametrize("ordering", sorted(ORDERING_REGISTRY))
    def test_every_ordering_is_cut_at_p(self, g, ordering):
        """Figure 2: VEBO's own boundaries, Algorithm 1's scan for the rest."""
        prep = prepare(g, ordering, 48)
        if ordering == "vebo":
            expected = get_ordering("vebo")(g, num_partitions=48).meta["boundaries"]
        else:
            expected = chunk_boundaries(prep.graph.in_degrees(), 48)
        assert prep.boundaries.dtype == np.int64
        assert np.array_equal(prep.boundaries, expected)

    def test_vebo_without_p_plus_one_boundaries_is_scanned(self, g, monkeypatch):
        vebo = ORDERING_REGISTRY["vebo"]

        def vebo_without_boundaries(graph, **kwargs):
            result = vebo(graph, **kwargs)
            del result.meta["boundaries"]
            return result

        monkeypatch.setitem(ORDERING_REGISTRY, "vebo", vebo_without_boundaries)
        prep = prepare(g, "vebo", 48)
        assert np.array_equal(
            prep.boundaries, chunk_boundaries(prep.graph.in_degrees(), 48)
        )


class TestExecute:
    def test_prepared_at_another_count_raises(self, g):
        prep = prepare(g, "vebo", 8)
        with pytest.raises(ResultsError, match="P=8"):
            execute(g, "CC", prepared=prep, num_partitions=16)

    def test_executions_reuse_the_prepared_cut(self, g, monkeypatch):
        """Algorithm 1 scans once per prepared graph, not per execution."""
        from repro.experiments import runner

        calls = []
        scan = runner.chunk_boundaries
        monkeypatch.setattr(
            runner, "chunk_boundaries", lambda *a: calls.append(a) or scan(*a)
        )
        prep = prepare(g, "rcm", 8)
        execute(g, "CC", ordering="rcm", prepared=prep, num_partitions=8)
        execute(g, "PR", ordering="rcm", prepared=prep, num_partitions=8,
                num_iterations=2)
        assert len(calls) == 1


class TestRun:
    def test_single_config(self, g):
        r = run(g, "PR", "graphgrind", ordering="vebo", num_iterations=2)
        assert r.seconds > 0
        assert r.framework == "graphgrind"
        assert r.ordering == "vebo"
        assert r.algorithm == "PR"

    def test_source_translated(self, g):
        """BFS must explore the same original component under any order."""
        a = run(g, "BFS", "ligra", ordering="original")
        b = run(g, "BFS", "ligra", ordering="random")
        # same number of iterations (same BFS tree depth)
        assert a.iterations == b.iterations

    def test_results_deterministic(self, g):
        a = run(g, "SPMV", "polymer", ordering="vebo")
        b = run(g, "SPMV", "polymer", ordering="vebo")
        assert a.seconds == b.seconds

    @pytest.mark.parametrize("entry", ["run", "price"])
    def test_unknown_framework_names_the_registry(self, g, entry):
        """Both entry points reject an unknown framework name the way an
        unknown machine is rejected: a SimulationError listing the
        registered personalities (not a bare KeyError)."""
        prep = prepare(g, "original", 384)
        if entry == "run":
            def call():
                return run(g, "PR", "ligr", prepared=prep, num_iterations=1)
        else:
            execution = execute(g, "PR", prepared=prep, num_iterations=1)

            def call():
                return price(execution, g, "ligr", prep)
        match = r"unknown framework 'ligr'; registered: \['graphgrind', 'ligra', 'polymer'\]"
        with pytest.raises(SimulationError, match=match):
            call()

    def test_all_algorithms_run(self, g):
        from repro.algorithms import ALGORITHMS

        for algo in ALGORITHMS:
            kwargs = {"num_iterations": 2} if algo in ("PR", "BP") else {}
            r = run(g, algo, "graphgrind", ordering="original", **kwargs)
            assert r.seconds > 0, algo


def sweep(g, algorithms, frameworks, orderings, **algo_kwargs):
    """One ``run()`` per cell of the (framework, ordering, algorithm) grid."""
    return [
        run(g, algo, fw, ordering=ordering, **algo_kwargs.get(algo, {}))
        for fw in frameworks
        for ordering in orderings
        for algo in algorithms
    ]


class TestSweep:
    def test_sweep_covers_grid(self, g):
        res = sweep(
            g, ["PR", "BFS"], ["ligra", "polymer"], ["original", "vebo"],
            PR={"num_iterations": 2},
        )
        combos = {(r.framework, r.algorithm, r.ordering) for r in res}
        assert len(combos) == 8
        assert all(r.seconds > 0 for r in res)

    def test_vebo_never_pathological(self, g):
        """VEBO must never be catastrophically slower than original —
        sanity guard on the calibrated model."""
        res = sweep(
            g, ["PR"], ["polymer", "graphgrind"], ["original", "vebo"],
            PR={"num_iterations": 3},
        )
        by = {(r.framework, r.ordering): r.seconds for r in res}
        for fw in ("polymer", "graphgrind"):
            assert by[(fw, "vebo")] < 2.0 * by[(fw, "original")]


class TestCLI:
    def test_reorder_roundtrip(self, tmp_path, g):
        from repro.cli import main

        inp = tmp_path / "in.adj"
        outp = tmp_path / "out.adj"
        write_adjacency_graph(g, inp)
        code = main([str(inp), str(outp), "-p", "16", "-r", "5"])
        assert code == 0
        g2 = read_adjacency_graph(outp)
        assert g2.num_edges == g.num_edges
        assert sorted(g2.in_degrees().tolist()) == sorted(g.in_degrees().tolist())

    def test_baseline_algorithm_choice(self, tmp_path, g):
        from repro.cli import main

        inp = tmp_path / "in.adj"
        outp = tmp_path / "out.adj"
        write_adjacency_graph(g, inp)
        assert main([str(inp), str(outp), "-a", "degree-sort", "-q"]) == 0

    def test_track_out_of_range(self, tmp_path, g):
        from repro.cli import main

        inp = tmp_path / "in.adj"
        outp = tmp_path / "out.adj"
        write_adjacency_graph(g, inp)
        assert main([str(inp), str(outp), "-r", "99999999"]) == 2
