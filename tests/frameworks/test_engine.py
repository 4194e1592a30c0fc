"""Unit tests for the frontier engine, frontier container and traces."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.frameworks.engine import EdgeOp, gather_rows
from repro.frameworks.frontier import DensityClass, Frontier
from repro.frameworks.trace import WorkTrace
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph import generators as gen
from repro.partition.algorithm1 import chunk_boundaries

from oracles import ReferenceEngine


def make_engine(graph, p=4, exact=False):
    """The shipped engine, or with ``exact=True`` the oracle engine
    counting distinct sources exactly."""
    b = chunk_boundaries(graph.in_degrees(), p)
    trace = WorkTrace(algorithm="test", graph_name=graph.name, num_partitions=p)
    if exact:
        return ReferenceEngine(graph, b, trace, exact_sources=True)
    return VectorizedEngine(graph, b, trace)


def sum_op(target_key="acc"):
    def gather(srcs, dsts, st):
        return st["x"][srcs]

    def apply(touched, reduced, st):
        st[target_key][touched] = reduced
        return np.ones(touched.size, dtype=bool)

    return EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)


class TestFrontier:
    def test_constructors(self):
        f = Frontier.from_ids(np.array([1, 3, 3]), 5)
        assert f.count() == 2
        assert list(f.ids) == [1, 3]
        assert Frontier.empty(5).is_empty()
        assert Frontier.all_vertices(5).count() == 5

    def test_density_classification(self, small_powerlaw):
        full = Frontier.all_vertices(small_powerlaw.num_vertices)
        assert full.classify(small_powerlaw) == DensityClass.DENSE
        single = Frontier.from_ids(np.array([0]), small_powerlaw.num_vertices)
        assert single.classify(small_powerlaw) in (
            DensityClass.SPARSE, DensityClass.MEDIUM,
        )

    def test_active_out_edges(self):
        g = gen.star_graph(10, inward=False)
        f = Frontier.from_ids(np.array([0]), g.num_vertices)
        assert f.active_out_edges(g) == 10


class TestGatherRows:
    def test_matches_manual_concatenation(self, small_powerlaw):
        csr = small_powerlaw.csr
        rows = np.array([3, 10, 3, 50])
        flat, row_of = gather_rows(csr.offsets, csr.adj, rows)
        expected = np.concatenate([csr.neighbors(int(r)) for r in rows])
        assert np.array_equal(csr.adj[flat], expected)
        expected_rows = np.concatenate(
            [np.full(csr.neighbors(int(r)).size, r) for r in rows]
        )
        assert np.array_equal(row_of, expected_rows)

    def test_empty_rows(self, small_powerlaw):
        csr = small_powerlaw.csr
        flat, row_of = gather_rows(csr.offsets, csr.adj, np.array([], dtype=np.int64))
        assert flat.size == 0 and row_of.size == 0


class TestEdgemapSemantics:
    def test_pull_sums_in_values(self, small_powerlaw):
        g = small_powerlaw
        eng = make_engine(g)
        n = g.num_vertices
        state = {"x": np.ones(n), "acc": np.zeros(n)}
        eng.edgemap(Frontier.all_vertices(n), sum_op(), state, direction="pull")
        assert np.array_equal(state["acc"], g.in_degrees().astype(float))

    def test_push_equals_pull_for_dense(self, small_powerlaw):
        g = small_powerlaw
        n = g.num_vertices
        rng = np.random.default_rng(0)
        x = rng.random(n)
        out = {}
        for direction in ("push", "pull"):
            eng = make_engine(g)
            state = {"x": x, "acc": np.zeros(n)}
            eng.edgemap(Frontier.all_vertices(n), sum_op(), state, direction=direction)
            out[direction] = state["acc"].copy()
        assert np.allclose(out["push"], out["pull"])

    def test_push_respects_frontier(self):
        g = gen.chain_graph(6)
        eng = make_engine(g, p=2)
        state = {"x": np.ones(6), "acc": np.zeros(6)}
        nxt = eng.edgemap(
            Frontier.from_ids(np.array([2]), 6), sum_op(), state, direction="push"
        )
        assert state["acc"][3] == 1.0
        assert state["acc"].sum() == 1.0
        assert list(nxt.ids) == [3]

    def test_pull_with_candidates(self):
        g = gen.chain_graph(6)
        eng = make_engine(g, p=2)
        state = {"x": np.ones(6), "acc": np.zeros(6)}
        eng.edgemap(
            Frontier.all_vertices(6), sum_op(), state,
            direction="pull", dst_candidates=np.array([3]),
        )
        assert state["acc"][3] == 1.0
        assert state["acc"].sum() == 1.0

    def test_min_reduction(self):
        g = gen.star_graph(4, inward=True)  # leaves 1..4 -> hub 0
        eng = make_engine(g, p=2)
        state = {"x": np.array([99.0, 5.0, 3.0, 7.0, 4.0]), "acc": np.zeros(5)}

        def gather(srcs, dsts, st):
            return st["x"][srcs]

        def apply(touched, reduced, st):
            st["acc"][touched] = reduced
            return np.ones(touched.size, dtype=bool)

        op = EdgeOp(gather=gather, reduce="min", apply=apply, identity=np.inf)
        eng.edgemap(Frontier.all_vertices(5), op, state, direction="pull")
        assert state["acc"][0] == 3.0

    def test_empty_frontier_noop(self, small_powerlaw):
        eng = make_engine(small_powerlaw)
        state = {"x": np.ones(small_powerlaw.num_vertices), "acc": np.zeros(small_powerlaw.num_vertices)}
        nxt = eng.edgemap(Frontier.empty(small_powerlaw.num_vertices), sum_op(), state)
        assert nxt.is_empty()
        assert len(eng.trace.records) == 0

    def test_bad_reduce_rejected(self):
        with pytest.raises(SimulationError):
            EdgeOp(gather=lambda *a: None, reduce="xor", apply=lambda *a: None, identity=0)

    def test_bad_direction_rejected(self, small_powerlaw):
        eng = make_engine(small_powerlaw)
        state = {"x": np.ones(small_powerlaw.num_vertices), "acc": np.zeros(small_powerlaw.num_vertices)}
        with pytest.raises(SimulationError):
            eng.edgemap(
                Frontier.all_vertices(small_powerlaw.num_vertices),
                sum_op(), state, direction="sideways",
            )


class TestWorkAccounting:
    def test_dense_pull_counts_all_edges(self, small_powerlaw):
        eng = make_engine(small_powerlaw)
        n = small_powerlaw.num_vertices
        state = {"x": np.ones(n), "acc": np.zeros(n)}
        eng.edgemap(Frontier.all_vertices(n), sum_op(), state, direction="pull")
        rec = eng.trace.records[0]
        assert rec.part_edges.sum() == small_powerlaw.num_edges
        nonzero = n - small_powerlaw.num_zero_in_degree()
        assert rec.part_dsts.sum() == nonzero

    def test_exact_sources_match_bruteforce(self, small_social):
        eng = make_engine(small_social, p=4, exact=True)
        n = small_social.num_vertices
        state = {"x": np.ones(n), "acc": np.zeros(n)}
        eng.edgemap(Frontier.all_vertices(n), sum_op(), state, direction="pull")
        rec = eng.trace.records[0]
        # brute force per-partition distinct sources
        b = eng.boundaries
        csc = small_social.csc
        for p in range(4):
            lo, hi = int(b[p]), int(b[p + 1])
            srcs = csc.adj[csc.offsets[lo] : csc.offsets[hi]]
            assert rec.part_srcs[p] == np.unique(srcs).size

    def test_approx_sources_exact_when_dense(self, small_social):
        exact = make_engine(small_social, p=4, exact=True)
        approx = make_engine(small_social, p=4, exact=False)
        n = small_social.num_vertices
        for eng in (exact, approx):
            state = {"x": np.ones(n), "acc": np.zeros(n)}
            eng.edgemap(Frontier.all_vertices(n), sum_op(), state, direction="pull")
        a = approx.trace.records[0].part_srcs
        e = exact.trace.records[0].part_srcs
        assert np.all(np.abs(a - e) <= np.maximum(1, 0.05 * e))

    def test_vertexmap_counts(self, small_powerlaw):
        eng = make_engine(small_powerlaw, p=4)
        n = small_powerlaw.num_vertices
        f = Frontier.all_vertices(n)
        out = eng.vertexmap(f, lambda ids, st: None, {})
        rec = eng.trace.records[0]
        assert rec.kind == "vertexmap"
        assert rec.part_vertices.sum() == n
        assert out.count() == n

    def test_vertexmap_filter(self, small_powerlaw):
        eng = make_engine(small_powerlaw, p=4)
        n = small_powerlaw.num_vertices
        f = Frontier.all_vertices(n)
        out = eng.vertexmap(f, lambda ids, st: ids % 2 == 0, {})
        assert out.count() == (n + 1) // 2

    def test_per_record_miss_measured(self, small_social):
        eng = make_engine(small_social, p=4)
        n = small_social.num_vertices
        state = {"x": np.ones(n), "acc": np.zeros(n)}
        eng.edgemap(Frontier.all_vertices(n), sum_op(), state, direction="pull")
        rec = eng.trace.records[0]
        assert 0.0 <= rec.src_miss <= 1.0
        assert 0.0 <= rec.dst_miss <= 1.0

    def test_trace_summaries(self, small_social):
        eng = make_engine(small_social, p=4)
        n = small_social.num_vertices
        state = {"x": np.ones(n), "acc": np.zeros(n)}
        f = Frontier.all_vertices(n)
        eng.edgemap(f, sum_op(), state, direction="pull")
        eng.vertexmap(f, lambda ids, st: None, {})
        t = eng.trace
        assert t.num_iterations == 2
        assert len(t.edgemap_records()) == 1
        assert len(t.vertexmap_records()) == 1
        assert t.dominant_direction() == "B"
        assert DensityClass.DENSE in t.density_classes()
