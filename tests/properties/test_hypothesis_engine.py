"""Property-based engine equivalence: push and pull are the same function.

The direction optimization is a *performance* choice — Beamer's heuristic
must never change results.  For seeded random graphs and every reduction
the engine supports, one edgemap step executed push (CSR, out-edges of the
frontier) and pull (CSC, in-edges of every destination) must produce
bit-identical state arrays and bit-identical next frontiers, because both
reduce the identical multiset of active edges.

Gather values are integer-valued floats so the ``add`` reduction is exact
in float64 — the equivalence is then genuinely bit-level, not tolerance-
level — and ``min``/``or`` are order-independent by construction.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.frameworks.engine import EdgeOp, gather_rows
from repro.frameworks.frontier import Frontier
from repro.frameworks.trace import WorkTrace
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph.csr import Graph
from repro.partition.algorithm1 import chunk_boundaries

from oracles import ReferenceEngine, gather_rows_reference


@st.composite
def graph_and_frontier(draw):
    n = draw(st.integers(min_value=1, max_value=48))
    m = draw(st.integers(min_value=0, max_value=160))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), n, name="prop"
    )
    active = rng.random(n) < draw(st.floats(min_value=0.0, max_value=1.0))
    p = draw(st.integers(min_value=1, max_value=min(8, n)))
    return graph, Frontier.from_mask(active), p, rng


def make_engine(graph, p, exact=False):
    """The shipped engine, or with ``exact=True`` the oracle engine
    counting distinct sources exactly."""
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    trace = WorkTrace(algorithm="prop", graph_name=graph.name, num_partitions=p)
    if exact:
        return ReferenceEngine(graph, boundaries, trace, exact_sources=True)
    return VectorizedEngine(graph, boundaries, trace)


def add_op():
    """PR/SPMV-shaped: sum integer-valued contributions of active sources."""
    def gather(srcs, dsts, st_):
        return st_["x"][srcs]

    def apply(touched, reduced, st_):
        st_["acc"][touched] = st_["acc"][touched] + reduced
        return reduced > st_["x"].mean()

    return EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)


def min_op():
    """BFS/BF-shaped: relax distances through active sources."""
    def gather(srcs, dsts, st_):
        return st_["dist"][srcs] + 1.0

    def apply(touched, reduced, st_):
        better = reduced < st_["dist"][touched]
        st_["dist"][touched] = np.minimum(st_["dist"][touched], reduced)
        return better

    return EdgeOp(gather=gather, reduce="min", apply=apply, identity=np.inf)


def or_op():
    """BFS-visited-shaped: mark any destination with an active in-neighbour."""
    def gather(srcs, dsts, st_):
        return np.ones(srcs.size, dtype=np.float64)

    def apply(touched, reduced, st_):
        fresh = (reduced > 0) & (st_["visited"][touched] == 0)
        st_["visited"][touched] = np.maximum(
            st_["visited"][touched], (reduced > 0).astype(np.float64)
        )
        return fresh

    return EdgeOp(gather=gather, reduce="or", apply=apply, identity=0.0)


def initial_state(graph, rng):
    n = graph.num_vertices
    return {
        # integer-valued floats keep every reduction exact in float64
        "x": rng.integers(1, 32, size=n).astype(np.float64),
        "acc": np.zeros(n, dtype=np.float64),
        "dist": rng.integers(0, 64, size=n).astype(np.float64),
        "visited": np.zeros(n, dtype=np.float64),
    }


STATE_KEYS = ("x", "acc", "dist", "visited")
OPS = {"add": add_op, "min": min_op, "or": or_op}


@given(graph_and_frontier(), st.sampled_from(sorted(OPS)))
@settings(max_examples=120, deadline=None)
def test_push_pull_bit_identical_state_and_frontier(gf, reduction):
    graph, frontier, p, rng = gf
    base = initial_state(graph, rng)
    outcomes = {}
    for direction in ("push", "pull"):
        engine = make_engine(graph, p)
        state = {k: v.copy() for k, v in base.items()}
        nxt = engine.edgemap(frontier, OPS[reduction](), state, direction=direction)
        outcomes[direction] = (state, nxt)
    push_state, push_next = outcomes["push"]
    pull_state, pull_next = outcomes["pull"]
    for key in STATE_KEYS:
        assert np.array_equal(push_state[key], pull_state[key]), (reduction, key)
    assert np.array_equal(push_next.mask, pull_next.mask), reduction
    assert np.array_equal(push_next.ids, pull_next.ids)


@given(graph_and_frontier(), st.sampled_from(sorted(OPS)))
@settings(max_examples=60, deadline=None)
def test_push_pull_identical_with_exact_source_accounting(gf, reduction):
    """Exact source counting (on the oracle engine) changes only the
    trace, never results: the shipped engine computes the same state."""
    graph, frontier, p, rng = gf
    base = initial_state(graph, rng)
    states = []
    for exact in (False, True):
        engine = make_engine(graph, p, exact=exact)
        state = {k: v.copy() for k, v in base.items()}
        nxt = engine.edgemap(frontier, OPS[reduction](), state, direction="push")
        states.append((state, nxt))
    for key in STATE_KEYS:
        assert np.array_equal(states[0][0][key], states[1][0][key])
    assert np.array_equal(states[0][1].mask, states[1][1].mask)


@given(graph_and_frontier())
@settings(max_examples=100, deadline=None)
def test_gather_rows_handles_empty_and_zero_degree_rows(gf):
    graph, frontier, _, _ = gf
    csr = graph.csr

    # empty row selection -> empty, well-typed output
    flat, row_of = gather_rows(csr.offsets, csr.adj, np.empty(0, dtype=np.int64))
    assert flat.size == 0 and row_of.size == 0

    # arbitrary selections (including zero-degree rows, and the unsorted,
    # repeated rows a pull candidate set may hold) match the manual
    # per-row concatenation and the oracle's row gather
    ids = frontier.ids
    rng = np.random.default_rng(ids.size)
    repeated = rng.permutation(np.concatenate([ids, ids[: ids.size // 2]]))
    for rows in (ids, ids[::-1], repeated):
        flat, row_of = gather_rows(csr.offsets, csr.adj, rows)
        expected_adj = (
            np.concatenate([csr.neighbors(int(r)) for r in rows])
            if rows.size
            else np.empty(0, dtype=np.int64)
        )
        assert np.array_equal(csr.adj[flat] if flat.size else flat, expected_adj)
        assert np.array_equal(
            row_of,
            np.repeat(rows, csr.degrees()[rows]) if rows.size else row_of,
        )
        ref_flat, ref_row_of = gather_rows_reference(csr.offsets, csr.adj, rows)
        assert flat.dtype == ref_flat.dtype and row_of.dtype == ref_row_of.dtype
        assert np.array_equal(flat, ref_flat) and np.array_equal(row_of, ref_row_of)


@given(graph_and_frontier(), st.sampled_from(sorted(OPS)))
@settings(max_examples=40, deadline=None)
def test_empty_frontier_is_a_fixed_point(gf, reduction):
    graph, _, p, rng = gf
    engine = make_engine(graph, p)
    state = initial_state(graph, rng)
    before = {k: v.copy() for k, v in state.items()}
    nxt = engine.edgemap(
        Frontier.empty(graph.num_vertices), OPS[reduction](), state
    )
    assert nxt.is_empty()
    for key in STATE_KEYS:
        assert np.array_equal(before[key], state[key])
