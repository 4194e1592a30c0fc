"""Property-based tests for graph structures, Hilbert curve, partitioning
and schedulers (the scheduling policies through the one-loop oracles,
which ``tests/machine/test_schedule.py`` ties to the batched ones)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.edgeorder.hilbert import hilbert_d2xy, hilbert_index
from repro.graph.csr import CSRMatrix, Graph
from repro.ordering.base import stable_bucket_argsort
from repro.ordering.streaming import assignment_to_order
from repro.ordering.vebo import counting_sort_by_degree
from repro.partition.algorithm1 import chunk_boundaries
from repro.partition.stats import compute_stats

from oracles import (
    chunk_boundaries_reference,
    cilk_recursive_schedule,
    greedy_dynamic_schedule,
    static_block_schedule,
)

#: Degree arrays that stress every boundary the exact-arithmetic scan and
#: the bucket sort care about: zeros, ties, hubs, and values spanning one,
#: two and three 16-bit digits.
degree_arrays = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=7),          # dense tie classes
        st.integers(min_value=0, max_value=2**16 - 1),  # single digit
        st.integers(min_value=0, max_value=2**20),      # two digits
        st.integers(min_value=0, max_value=2**33),      # three digits
    ),
    min_size=0,
    max_size=120,
)


@st.composite
def edge_sets(draw):
    n = draw(st.integers(min_value=1, max_value=50))
    m = draw(st.integers(min_value=0, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=m), rng.integers(0, n, size=m), n


@given(edge_sets())
@settings(max_examples=80, deadline=None)
def test_csr_roundtrip_preserves_multiset(es):
    src, dst, n = es
    g = Graph.from_edges(src, dst, n)
    s2, d2 = g.edges()
    assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
        zip(s2.tolist(), d2.tolist())
    )
    # CSC view holds the same multiset
    s3, d3 = g.edges_csc()
    assert sorted(zip(s3.tolist(), d3.tolist())) == sorted(
        zip(src.tolist(), dst.tolist())
    )


@given(edge_sets())
@settings(max_examples=60, deadline=None)
def test_degree_sums(es):
    src, dst, n = es
    g = Graph.from_edges(src, dst, n)
    assert g.out_degrees().sum() == src.size
    assert g.in_degrees().sum() == src.size
    assert np.array_equal(g.in_degrees(), g.reverse().out_degrees())


@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=0, max_value=2**12 - 1), min_size=1, max_size=50),
)
@settings(max_examples=80, deadline=None)
def test_hilbert_roundtrip(order, ds):
    d = np.array([x % (1 << (2 * order)) for x in ds], dtype=np.int64)
    x, y = hilbert_d2xy(d, order)
    assert np.array_equal(hilbert_index(x, y, order), d)
    side = 1 << order
    assert np.all((x >= 0) & (x < side) & (y >= 0) & (y < side))


@given(degree_arrays, st.integers(min_value=1, max_value=40))
@settings(max_examples=150, deadline=None)
def test_chunk_boundaries_bit_identical_to_sequential_reference(degs, p):
    """The vectorized exact-integer scan IS the paper's sequential scan:
    bit-identical for every (degrees, P), including exact-boundary ties
    where the historical float targets could disagree."""
    degrees = np.array(degs, dtype=np.int64)
    assert np.array_equal(
        chunk_boundaries(degrees, p), chunk_boundaries_reference(degrees, p)
    )


@given(degree_arrays)
@settings(max_examples=150, deadline=None)
def test_counting_sort_matches_stable_argsort_oracle(degs):
    """Bucket sort == np.argsort(-degrees, kind='stable'): same order,
    same tie-breaking (stability), across 1-, 2- and 3-digit keys."""
    degrees = np.array(degs, dtype=np.int64)
    assert np.array_equal(
        counting_sort_by_degree(degrees),
        np.argsort(-degrees, kind="stable"),
    )


@given(degree_arrays)
@settings(max_examples=100, deadline=None)
def test_stable_bucket_argsort_ascending_oracle(keys):
    arr = np.array(keys, dtype=np.int64)
    assert np.array_equal(
        stable_bucket_argsort(arr), np.argsort(arr, kind="stable")
    )


@given(
    st.lists(st.integers(min_value=0, max_value=11), min_size=0, max_size=80),
    st.integers(min_value=12, max_value=20),
)
@settings(max_examples=100, deadline=None)
def test_assignment_to_order_round_trip(assign_list, p):
    """Layout permutation round trip: a valid permutation whose contiguous
    blocks reproduce the assignment, preserving arrival order within each
    partition."""
    assign = np.array(assign_list, dtype=np.int64)
    perm = assignment_to_order(assign, p)
    n = assign.size
    assert sorted(perm.tolist()) == list(range(n))
    # invert: new-seq -> old-id, then check blocks are sorted by partition
    inv = np.empty(n, dtype=np.int64)
    inv[perm] = np.arange(n)
    parts_in_layout = assign[inv]
    assert np.all(np.diff(parts_in_layout) >= 0)
    # arrival order preserved within each partition
    for j in np.unique(assign):
        members = inv[parts_in_layout == j]
        assert np.all(np.diff(members) > 0)


@given(edge_sets(), st.integers(min_value=1, max_value=10))
@settings(max_examples=60, deadline=None)
def test_chunk_boundaries_valid_and_stats_conserve(es, p):
    src, dst, n = es
    g = Graph.from_edges(src, dst, n)
    b = chunk_boundaries(g.in_degrees(), p)
    assert b[0] == 0 and b[-1] == n
    assert np.all(np.diff(b) >= 0)
    st_ = compute_stats(g, b)
    assert st_.edges.sum() == g.num_edges
    assert st_.vertices.sum() == n
    assert st_.unique_destinations.sum() == n - g.num_zero_in_degree()
    assert np.all(st_.unique_sources <= st_.edges)


costs_strategy = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False), min_size=0, max_size=120
).map(np.array)


@given(costs_strategy, st.integers(min_value=1, max_value=16))
@settings(max_examples=80, deadline=None)
def test_schedules_conserve_work_and_bound_makespan(costs, w):
    total = costs.sum() if costs.size else 0.0
    for fn in (static_block_schedule, greedy_dynamic_schedule):
        r = fn(costs, w)
        assert r.total_work == np.float64(total) or abs(r.total_work - total) < 1e-9
        # makespan between ideal and serial
        assert r.makespan <= total + 1e-9
        if costs.size:
            assert r.makespan >= max(total / w, costs.max()) - 1e-9


@given(costs_strategy, st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_cilk_within_graham_bound(costs, w):
    r = cilk_recursive_schedule(costs, w)
    if costs.size:
        opt_lb = max(costs.sum() / w, costs.max())
        # leaves aggregate contiguous tasks; the bound is against the leaf
        # granularity, so allow the documented 8-per-worker grain factor.
        grain = max(1, (costs.size + 8 * w - 1) // (8 * w))
        worst_leaf = float(
            max(costs[i : i + grain].sum() for i in range(0, costs.size, grain))
        )
        assert r.makespan <= costs.sum() + 1e-9
        assert r.makespan >= max(costs.sum() / w, 0.0) - 1e-9
        assert r.makespan <= (2 - 1 / w) * max(opt_lb, worst_leaf) + 1e-6


@given(
    st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=200),
)
@settings(max_examples=60, deadline=None)
def test_branch_predictor_bounds(degs):
    from repro.machine.branch import simulate_degree_loop

    arr = np.array(degs, dtype=np.int64)
    stats = simulate_degree_loop(arr)
    # at least 1 (first vertex), at most one per vertex
    assert 1 <= stats.mispredictions <= arr.size
    # sorting the degrees never increases mispredictions
    sorted_stats = simulate_degree_loop(np.sort(arr))
    assert sorted_stats.mispredictions <= stats.mispredictions
