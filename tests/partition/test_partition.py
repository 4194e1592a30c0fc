"""Unit tests for Algorithm 1 chunk partitioning and partition statistics."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph import generators as gen
from repro.partition import (
    PartitionedGraph,
    boundaries_from_counts,
    chunk_boundaries,
    compute_stats,
    partition_by_destination,
    summarize,
)

from oracles import chunk_boundaries_reference


class TestChunkBoundaries:
    def test_uniform_degrees_equal_chunks(self):
        degs = np.full(100, 3, dtype=np.int64)
        b = chunk_boundaries(degs, 4)
        assert list(b) == [0, 25, 50, 75, 100]

    def test_single_partition(self):
        b = chunk_boundaries(np.array([1, 2, 3]), 1)
        assert list(b) == [0, 3]

    def test_hub_overloads_one_chunk(self):
        # One vertex holds all edges; Algorithm 1 cannot split it.
        degs = np.array([0, 0, 100, 0, 0], dtype=np.int64)
        b = chunk_boundaries(degs, 2)
        stats_edges = np.add.reduceat(degs, b[:-1])[: 2]
        assert stats_edges.max() == 100

    def test_matches_sequential_scan(self):
        """The vectorized searchsorted version must agree with a literal
        transcription of Algorithm 1's loop."""
        rng = np.random.default_rng(0)
        degs = rng.integers(0, 20, size=200).astype(np.int64)
        p = 7
        avg = degs.sum() / p
        cuts = [0]
        acc = 0.0
        i = 0
        for v in range(200):
            if acc >= avg * (len(cuts)) and len(cuts) < p:
                cuts.append(v)
            acc += degs[v]
        # literal scan: partition advances when the running count of the
        # current partition reaches avg
        literal = np.empty(p + 1, dtype=np.int64)
        literal[0] = 0
        k = 1
        run = 0
        for v in range(200):
            if run >= avg and k < p:
                literal[k] = v
                k += 1
                run = 0
            run += degs[v]
        while k < p:
            literal[k] = 200
            k += 1
        literal[p] = 200
        ours = chunk_boundaries(degs, p)
        # Both are edge-balanced chunkings; the imbalance they achieve must
        # match within one vertex's degree (the documented boundary slack).
        edges_ours = np.array([degs[ours[i]:ours[i+1]].sum() for i in range(p)])
        edges_lit = np.array([degs[literal[i]:literal[i+1]].sum() for i in range(p)])
        assert abs(edges_ours.max() - edges_lit.max()) <= degs.max()

    def test_rejects_bad_p(self):
        with pytest.raises(PartitionError):
            chunk_boundaries(np.array([1]), 0)


class TestExactBoundaryArithmetic:
    """The PR-5 fix: integer ceil-division targets, no float anywhere."""

    def test_exact_tie_cuts_at_the_tie(self):
        # cumulative [1, 2]: the first vertex reaches the exact average
        # 2/2 = 1, so the paper's >= test must cut right there.  A float
        # target that rounded above 1.0 would push the cut a vertex late.
        assert list(chunk_boundaries(np.array([1, 1]), 2)) == [0, 1, 2]

    def test_large_counts_where_floats_lose_integer_resolution(self):
        # Degrees around 2**53 exceed float64's integer resolution: the
        # float target i * (total / p) can land on either side of the
        # exact integer tie.  The integer scan stays exact.
        big = 2**53
        degs = np.array([big + 1, big + 1, 2], dtype=np.int64)
        b = chunk_boundaries(degs, 2)
        assert np.array_equal(b, chunk_boundaries_reference(degs, 2))
        # exact: cums[0] = 2**53 + 1 misses ceil(total/2) = 2**53 + 2 by
        # one unit — a resolution float64 cannot even represent here
        assert list(b) == [0, 2, 3]

    def test_no_int64_overflow_at_accounting_partition_count(self):
        # 383 * (6 * 2**53) overflows int64; the ceil targets must be
        # computed in exact arithmetic or the vectorized scan silently
        # diverges from the reference at the library's own P = 384.
        degs = np.full(6, 2**53, dtype=np.int64)
        assert np.array_equal(
            chunk_boundaries(degs, 384), chunk_boundaries_reference(degs, 384)
        )

    def test_zero_total_matches_reference(self):
        degs = np.zeros(5, dtype=np.int64)
        b = chunk_boundaries(degs, 3)
        assert np.array_equal(b, chunk_boundaries_reference(degs, 3))
        assert b[0] == 0 and b[-1] == 5

    def test_hub_overshoot_matches_reference(self):
        degs = np.array([10, 1, 1, 1], dtype=np.int64)
        assert np.array_equal(
            chunk_boundaries(degs, 3), chunk_boundaries_reference(degs, 3)
        )

    def test_reference_rejects_bad_p(self):
        with pytest.raises(PartitionError):
            chunk_boundaries_reference(np.array([1]), 0)


class TestBoundariesFromCounts:
    def test_prefix_sums(self):
        b = boundaries_from_counts(np.array([3, 1, 2]))
        assert list(b) == [0, 3, 4, 6]

    def test_rejects_negative(self):
        with pytest.raises(PartitionError):
            boundaries_from_counts(np.array([1, -1]))


class TestPartitionedGraph:
    def test_basic_accessors(self, small_powerlaw):
        pg = partition_by_destination(small_powerlaw, 8)
        assert pg.num_partitions == 8
        lo, hi = pg.vertex_range(0)
        assert lo == 0 and hi >= lo
        assert pg.boundaries[-1] == small_powerlaw.num_vertices

    def test_partition_of_vertex(self, small_powerlaw):
        pg = partition_by_destination(small_powerlaw, 8)
        for p in range(8):
            lo, hi = pg.vertex_range(p)
            if hi > lo:
                assert pg.partition_of_vertex(lo) == p
                assert pg.partition_of_vertex(hi - 1) == p

    def test_partition_sources_cover_all_edges(self, small_powerlaw):
        pg = partition_by_destination(small_powerlaw, 8)
        total = sum(pg.partition_sources(p).size for p in range(8))
        assert total == small_powerlaw.num_edges

    def test_explicit_boundaries_validated(self, small_powerlaw):
        n = small_powerlaw.num_vertices
        with pytest.raises(PartitionError):
            partition_by_destination(
                small_powerlaw, 2, boundaries=np.array([0, n // 2, n - 1])
            )
        with pytest.raises(PartitionError):
            partition_by_destination(
                small_powerlaw, 2, boundaries=np.array([0, n])
            )

    def test_stats_cached(self, small_powerlaw):
        pg = partition_by_destination(small_powerlaw, 4)
        assert pg.stats is pg.stats


class TestComputeStats:
    def test_totals_conserved(self, small_social):
        b = chunk_boundaries(small_social.in_degrees(), 6)
        st = compute_stats(small_social, b)
        assert st.edges.sum() == small_social.num_edges
        assert st.vertices.sum() == small_social.num_vertices
        nonzero = small_social.num_vertices - small_social.num_zero_in_degree()
        assert st.unique_destinations.sum() == nonzero

    def test_unique_sources_vs_bruteforce(self, small_social):
        b = chunk_boundaries(small_social.in_degrees(), 5)
        st = compute_stats(small_social, b)
        csc = small_social.csc
        for p in range(5):
            lo, hi = int(b[p]), int(b[p + 1])
            srcs = csc.adj[csc.offsets[lo] : csc.offsets[hi]]
            assert st.unique_sources[p] == np.unique(srcs).size

    def test_star_graph_extremes(self):
        g = gen.star_graph(20, inward=True)
        b = chunk_boundaries(g.in_degrees(), 2)
        st = compute_stats(g, b)
        # all edges land in the hub's partition
        assert st.edges.max() == 20
        assert st.edges.min() == 0
        assert st.edge_imbalance() == 20

    def test_imbalance_metrics(self):
        g = gen.chain_graph(40)
        b = chunk_boundaries(g.in_degrees(), 4)
        st = compute_stats(g, b)
        assert st.edge_imbalance() <= 1
        assert st.vertex_imbalance() <= 11


class TestSummarize:
    def test_summary_values(self):
        s = summarize(np.array([1.0, 2.0, 3.0, 10.0]))
        assert s.minimum == 1.0
        assert s.maximum == 10.0
        assert s.median == 2.5
        assert s.mean == 4.0
        assert s.spread_ratio == 10.0

    def test_zero_min_spread_is_inf(self):
        s = summarize(np.array([0.0, 5.0]))
        assert s.spread_ratio == float("inf")

    def test_empty(self):
        s = summarize(np.array([]))
        assert s.mean == 0.0
        assert s.spread_ratio == 1.0

    def test_cv(self):
        s = summarize(np.array([2.0, 2.0, 2.0]))
        assert s.coefficient_of_variation == 0.0
