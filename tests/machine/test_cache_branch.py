"""Unit tests for the cache, TLB and branch-predictor simulators."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.machine.branch import simulate_degree_loop
from repro.machine.cache import (
    CacheConfig,
    CacheSimulator,
    LLC_CONFIG,
    TLB_CONFIG,
)
from repro.machine.counters import InstructionModel, ThreadCounters, mpki_table
from repro.machine.locality import (
    line_hit_fraction,
    measure_stream,
    sequential_fraction,
)

from oracles import line_hit_fraction_reference


class TestCacheSimulator:
    def test_sequential_stream_mostly_hits(self):
        sim = CacheSimulator(CacheConfig(num_sets=64, ways=4))
        stats = sim.access(np.arange(4096))
        # one miss per 8-element line
        assert stats.misses == 4096 // 8
        assert stats.hits == 4096 - 512

    def test_repeat_hits(self):
        sim = CacheSimulator(CacheConfig(num_sets=4, ways=2))
        sim.access(np.array([0]))
        stats = sim.access(np.array([0, 1, 2]))  # same line
        assert stats.misses == 0

    def test_capacity_eviction(self):
        cfg = CacheConfig(num_sets=1, ways=2, line_elems=1)
        sim = CacheSimulator(cfg)
        stats = sim.access(np.array([0, 1, 2, 0]))  # 0 evicted by 2
        assert stats.misses == 4

    def test_lru_order(self):
        cfg = CacheConfig(num_sets=1, ways=2, line_elems=1)
        sim = CacheSimulator(cfg)
        # access 0, 1, re-touch 0 (making 1 LRU), add 2 -> evicts 1
        stats = sim.access(np.array([0, 1, 0, 2, 0]))
        assert stats.misses == 3  # 0, 1, 2 cold; final 0 hits

    def test_numa_attribution(self):
        sim = CacheSimulator(CacheConfig(num_sets=4, ways=2))
        idx = np.arange(64)
        homes = np.where(idx < 32, 0, 1)
        stats = sim.access(idx, home_sockets=homes, thread_socket=0)
        assert stats.misses_local == 4   # first 32 elems = 4 lines on socket 0
        assert stats.misses_remote == 4

    def test_home_length_mismatch_rejected(self):
        sim = CacheSimulator(CacheConfig(num_sets=4, ways=2))
        with pytest.raises(SimulationError):
            sim.access(np.arange(4), home_sockets=np.zeros(3), thread_socket=0)

    def test_reset(self):
        sim = CacheSimulator(CacheConfig(num_sets=4, ways=2))
        sim.access(np.arange(32))
        sim.reset()
        assert sim.stats.accesses == 0
        stats = sim.access(np.array([0]))
        assert stats.misses == 1

    def test_bad_geometry_rejected(self):
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=3, ways=2)  # not a power of two
        with pytest.raises(SimulationError):
            CacheConfig(num_sets=0, ways=2)

    def test_tlb_config_page_granularity(self):
        sim = CacheSimulator(TLB_CONFIG)
        stats = sim.access(np.arange(0, 512 * 4, 64))  # 4 pages
        assert stats.misses == 4

    def test_llc_config_sane(self):
        assert LLC_CONFIG.capacity_lines == 4096 * 16


class TestBranchPredictor:
    def test_constant_degrees_near_perfect(self):
        stats = simulate_degree_loop(np.full(1000, 7))
        assert stats.mispredictions == 1  # only the first vertex

    def test_alternating_degrees_mispredict(self):
        degs = np.tile([3, 9], 500)
        stats = simulate_degree_loop(degs)
        assert stats.mispredictions == 1000

    def test_sorted_degrees_few_mispredictions(self):
        """VEBO's degree-descending order: misprediction count equals the
        number of distinct degree values, not the vertex count."""
        rng = np.random.default_rng(0)
        degs = np.sort(rng.integers(0, 50, 5000))[::-1]
        stats = simulate_degree_loop(degs)
        assert stats.mispredictions <= 50

    def test_branch_totals(self):
        stats = simulate_degree_loop(np.array([2, 0, 1]))
        assert stats.branches == 3 + 3
        assert 0.0 < stats.misprediction_rate <= 1.0

    def test_empty(self):
        stats = simulate_degree_loop(np.array([], dtype=np.int64))
        assert stats.branches == 0
        assert stats.mpki(1000) == 0.0


class TestLocality:
    def test_sequential_stream(self):
        loc = measure_stream(np.arange(10000), window=64)
        assert loc.sequential_fraction == 1.0
        assert loc.line_hit_fraction > 0.8

    def test_random_stream_worse(self):
        rng = np.random.default_rng(0)
        seq = line_hit_fraction(np.arange(20000), window=64)
        rand = line_hit_fraction(rng.integers(0, 200000, 20000), window=64)
        assert rand < seq

    def test_hot_element_reuse_detected(self):
        # A stream hammering one element hits regardless of window.
        stream = np.zeros(1000, dtype=np.int64)
        assert line_hit_fraction(stream, window=16) > 0.99

    @pytest.mark.parametrize("high", [50, 40_000, 3_000_000])
    def test_bucket_grouping_matches_comparison_sort(self, high):
        """The composite-key grouping counts exactly the hits a stable
        comparison argsort over the line ids finds (as does the oracle's
        bucket sort, at one and two radix passes), and so does the
        sorted-stream shortcut: on sorted streams, on nearly sorted ones
        (one swapped pair, so the shortcut must not fire), at windows 0
        (where nothing hits) and 1, and at a window longer than the
        stream.  Negative indices, and keys past int64, raise."""
        rng = np.random.default_rng(high)
        random = rng.integers(0, high, 30_000)
        ordered = np.sort(random)
        nearly = ordered.copy()
        steps = np.flatnonzero(np.diff(nearly // 8))
        if steps.size:
            j = steps[steps.size // 2]
            nearly[[j, j + 1]] = nearly[[j + 1, j]]
        for stream in (random, ordered, nearly, ordered[:1]):
            lines = stream // 8
            order = np.argsort(lines, kind="stable")
            same = np.r_[False, lines[order][1:] == lines[order][:-1]]
            gap = np.r_[np.iinfo(np.int64).max, np.diff(order)]
            for window in (0, 1, 256, 2 * stream.size):
                want = float(np.count_nonzero(same & (gap <= window))) / stream.size
                assert line_hit_fraction(stream, window=window) == want
                assert line_hit_fraction_reference(stream, window=window) == want
        for stream in (np.array([24, -8, 40]), np.array([-8, 0, 8])):
            with pytest.raises(SimulationError, match="non-negative"):
                line_hit_fraction(stream, window=256)
        # The largest key is 2**59 * (3 + 4096) + 2, past int64.
        huge = np.array([2**62, 0, 2**62], dtype=np.int64)
        assert line_hit_fraction_reference(huge, window=4096) == 1 / 3
        with pytest.raises(SimulationError, match="overflow"):
            line_hit_fraction(huge, window=4096)

    def test_empty_stream(self):
        loc = measure_stream(np.array([], dtype=np.int64))
        assert loc.line_hit_fraction == 1.0
        assert loc.distinct_lines == 0

    def test_sequential_fraction_measures_strides(self):
        jumpy = np.arange(0, 80000, 1000)
        assert sequential_fraction(jumpy) == 0.0


class TestCounters:
    def test_instruction_model(self):
        m = InstructionModel()
        assert m.estimate(1000, 100) > 1000

    def test_mpki_table_shapes(self):
        from repro.machine.cache import CacheStats
        from repro.machine.branch import BranchStats

        counters = [
            ThreadCounters(
                thread=t,
                instructions=10000,
                llc=CacheStats(accesses=100, hits=90, misses_local=8, misses_remote=2),
                tlb=CacheStats(accesses=100, hits=99, misses_local=1, misses_remote=0),
                branch=BranchStats(branches=1000, mispredictions=10),
            )
            for t in range(4)
        ]
        table = mpki_table(counters)
        assert table["llc_local_mpki"].shape == (4,)
        assert table["llc_remote_mpki"][0] == pytest.approx(0.2)
        assert table["branch_mpki"][0] == pytest.approx(1.0)
