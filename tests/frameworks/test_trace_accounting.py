"""Trace-accounting invariants: the counters pricing consumes are honest.

The framework personalities price whatever the engine records, so the
recorded per-partition counters must obey hard invariants against the
static partition statistics (:func:`repro.partition.stats.compute_stats`):

* every edgemap's ``part_edges`` sums to its ``active_edges``;
* both the exact per-partition distinct-source counts (the oracle
  engine's ``exact_sources=True``) and the shipped engine's scaled
  approximation lie in the same sandwich — at least 1 wherever the
  partition saw an edge, at most ``min(part_edges, static unique
  sources)``;
* a full dense step (every vertex active, pull) reproduces the static
  Figure 1 counters *exactly*, for edges, unique destinations and unique
  sources, under both accounting modes;
* the shipped engine counts a partial step's edges and destinations per
  partition exactly as the oracle does, whichever way it counts: binary
  searches over a sorted destination stream, a sort of a sparse unsorted
  one, or one per-vertex count of a denser unsorted one.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.frameworks.trace import WorkTrace, record_fingerprint
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph.csr import Graph
from repro.partition.algorithm1 import chunk_boundaries
from repro.partition.stats import compute_stats

from oracles import ReferenceEngine

P = 6


def make_engine(graph, exact):
    """The shipped engine, or with ``exact=True`` the oracle engine
    counting distinct sources exactly."""
    boundaries = chunk_boundaries(graph.in_degrees(), P)
    trace = WorkTrace(algorithm="acct", graph_name=graph.name, num_partitions=P)
    if exact:
        return ReferenceEngine(graph, boundaries, trace, exact_sources=True)
    return VectorizedEngine(graph, boundaries, trace)


def relax_op():
    def gather(srcs, dsts, st):
        return st["dist"][srcs] + 1.0

    def apply(touched, reduced, st):
        better = reduced < st["dist"][touched]
        st["dist"][touched] = np.minimum(st["dist"][touched], reduced)
        return better

    return EdgeOp(gather=gather, reduce="min", apply=apply, identity=np.inf)


def bfs_records(graph, exact):
    """A BFS-like expansion from the highest-out-degree hub: sparse,
    medium and (often) dense steps in one trace."""
    engine = make_engine(graph, exact)
    n = graph.num_vertices
    src = int(np.argmax(graph.out_degrees()))
    state = {"dist": np.full(n, np.inf)}
    state["dist"][src] = 0.0
    frontier = Frontier.from_ids(np.array([src]), n)
    for _ in range(30):
        if frontier.is_empty():
            break
        frontier = engine.edgemap(frontier, relax_op(), state)
    return engine


def dense_pull_records(graph, exact, iterations=3):
    engine = make_engine(graph, exact)
    n = graph.num_vertices
    state = {"dist": np.zeros(n)}
    for _ in range(iterations):
        engine.edgemap(
            Frontier.all_vertices(n), relax_op(), state, direction="pull"
        )
    return engine


@pytest.fixture(params=["bfs", "dense"])
def traced(request, small_social):
    runner = bfs_records if request.param == "bfs" else dense_pull_records
    exact = runner(small_social, exact=True).trace
    approx = runner(small_social, exact=False).trace
    stats = compute_stats(
        small_social, chunk_boundaries(small_social.in_degrees(), P)
    )
    return exact, approx, stats


def edgemaps(trace):
    recs = trace.edgemap_records()
    assert recs, "workload recorded no edgemap steps"
    return recs


class TestEdgeAccounting:
    def test_part_edges_sum_to_active_edges(self, traced):
        exact, approx, _ = traced
        for trace in (exact, approx):
            for rec in edgemaps(trace):
                assert int(rec.part_edges.sum()) == rec.active_edges

    def test_step_edges_never_exceed_static_edges(self, traced):
        exact, _, stats = traced
        for rec in edgemaps(exact):
            assert np.all(rec.part_edges <= stats.edges)


class TestSourceAccounting:
    def test_exact_and_scaled_share_the_sandwich_bounds(self, traced):
        """Both accounting modes stay within [1 if the partition saw an
        edge, min(part_edges, static unique sources)] — the bound that
        makes the cheap scaled approximation safe to price."""
        exact, approx, stats = traced
        for trace in (exact, approx):
            for rec in edgemaps(trace):
                saw_edge = rec.part_edges > 0
                assert np.array_equal(rec.part_srcs > 0, saw_edge)
                cap = np.minimum(rec.part_edges, stats.unique_sources)
                assert np.all(rec.part_srcs <= cap)

    def test_records_align_between_modes(self, traced):
        """Exact source counting changes only part_srcs, never the
        computation: both traces record the same steps with the same edge
        counts."""
        exact, approx, _ = traced
        ex, ap = edgemaps(exact), edgemaps(approx)
        assert len(ex) == len(ap)
        for re_, ra in zip(ex, ap):
            assert re_.direction == ra.direction
            assert re_.active_edges == ra.active_edges
            assert np.array_equal(re_.part_edges, ra.part_edges)
            assert np.array_equal(re_.part_dsts, ra.part_dsts)


class TestDenseStepsMatchStaticStats:
    def test_full_dense_pull_reproduces_compute_stats(self, small_social):
        stats = compute_stats(
            small_social, chunk_boundaries(small_social.in_degrees(), P)
        )
        for exact in (True, False):
            trace = dense_pull_records(small_social, exact=exact).trace
            for rec in edgemaps(trace):
                assert np.array_equal(rec.part_edges, stats.edges)
                assert np.array_equal(rec.part_dsts, stats.unique_destinations)
                # frac == 1 on a full step, so even the scaled
                # approximation collapses to the static count
                assert np.array_equal(rec.part_srcs, stats.unique_sources)

    def test_dense_pull_on_powerlaw_graph(self, small_powerlaw):
        stats = compute_stats(
            small_powerlaw, chunk_boundaries(small_powerlaw.in_degrees(), P)
        )
        trace = dense_pull_records(small_powerlaw, exact=True).trace
        rec = edgemaps(trace)[0]
        assert int(rec.part_edges.sum()) == small_powerlaw.num_edges
        assert np.array_equal(rec.part_srcs, stats.unique_sources)


class TestVertexmapAccounting:
    def test_part_vertices_sum_to_active_count(self, small_social):
        engine = make_engine(small_social, exact=False)
        n = small_social.num_vertices
        rng = np.random.default_rng(9)
        for frac in (0.0, 0.3, 1.0):
            f = Frontier.from_mask(rng.random(n) < frac)
            engine.vertexmap(f, lambda ids, st: None, {})
            rec = engine.trace.records[-1]
            assert rec.kind == "vertexmap"
            assert int(rec.part_vertices.sum()) == f.count()
            assert rec.part_edges.sum() == 0


@st.composite
def uneven_layout(draw):
    """A random graph, whose vertex 0 has two parallel out-edges, under
    random boundaries: repeated cuts (empty partitions) are common, and
    ``P`` ranges up to twice ``n``."""
    n = draw(st.integers(min_value=40, max_value=120))
    m = draw(st.integers(min_value=n, max_value=6 * n))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    srcs = np.r_[0, 0, rng.integers(1, n, size=m - 2)]
    dsts = rng.integers(0, n, size=m)
    dsts[1] = dsts[0]
    graph = Graph.from_edges(srcs, dsts, n, name="acct")
    p = draw(st.integers(min_value=1, max_value=2 * n))
    cuts = np.sort(rng.integers(0, n + 1, size=p - 1))
    return graph, np.concatenate([[0], cuts, [n]]).astype(np.int64), rng


@given(uneven_layout())
@settings(max_examples=60, deadline=None)
def test_partial_step_counters_match_the_oracle(layout):
    """Sorted streams (pull, pull over ascending candidates), a sparse
    unsorted stream (push from vertex 0: two edges, fewer than n/16) and
    denser unsorted ones (push from half the vertices, pull over shuffled
    candidates) record what the oracle records."""
    graph, boundaries, rng = layout
    n = graph.num_vertices
    half = rng.random(n) < 0.5
    half[0] = True
    cases = [
        ("push", Frontier.from_ids(np.array([0]), n), None),
        ("push", Frontier.from_mask(half), None),
        ("pull", Frontier.from_mask(half), None),
        ("pull", Frontier.from_mask(half), np.flatnonzero(rng.random(n) < 0.7)),
        ("pull", Frontier.from_mask(half), rng.permutation(n)[: n // 2]),
    ]
    for direction, frontier, candidates in cases:
        fingerprints = []
        for build in (ReferenceEngine, VectorizedEngine):
            trace = WorkTrace(algorithm="acct", graph_name="acct",
                              num_partitions=boundaries.size - 1)
            state = {"dist": np.arange(n, dtype=np.float64)}
            nxt = build(graph, boundaries, trace).edgemap(
                frontier, relax_op(), state, direction=direction,
                dst_candidates=candidates,
            )
            (rec,) = trace.records
            fingerprints.append(
                (record_fingerprint(rec), nxt.ids.tobytes(), state["dist"].tobytes())
            )
        assert fingerprints[0] == fingerprints[1], (direction, candidates is None)
