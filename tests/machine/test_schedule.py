"""Unit tests for the scheduling simulators.

The policy checks (imbalance, Graham's bound, contiguity, steal overhead)
run against the one-loop heap schedulers of ``oracles``; the batched
schedulers of :mod:`repro.machine.schedule` must return the oracle's
makespans bit for bit, row by row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import SimulationError
from repro.machine import schedule as batched
from oracles import (
    cilk_recursive_schedule,
    greedy_dynamic_schedule,
    hierarchical_numa_schedule,
    static_block_schedule,
    static_numa_schedule,
)


class TestStaticBlock:
    def test_uniform_costs_balanced(self):
        r = static_block_schedule(np.full(48, 1.0), 8)
        assert r.makespan == pytest.approx(6.0)
        assert r.imbalance_ratio == pytest.approx(1.0)

    def test_clustered_costs_hurt(self):
        costs = np.zeros(16)
        costs[:4] = 1.0  # all heavy tasks in worker 0's block
        r = static_block_schedule(costs, 4)
        assert r.makespan == pytest.approx(4.0)
        assert r.imbalance_ratio == pytest.approx(4.0)

    def test_spread_costs_fine(self):
        costs = np.zeros(16)
        costs[::4] = 1.0  # one heavy task per block
        r = static_block_schedule(costs, 4)
        assert r.makespan == pytest.approx(1.0)

    def test_fewer_tasks_than_workers(self):
        r = static_block_schedule(np.array([3.0, 1.0]), 8)
        assert r.makespan == pytest.approx(3.0)

    def test_total_work_conserved(self):
        rng = np.random.default_rng(0)
        costs = rng.random(37)
        r = static_block_schedule(costs, 5)
        assert r.total_work == pytest.approx(costs.sum())


class TestGreedyDynamic:
    def test_absorbs_clustering(self):
        costs = np.zeros(16)
        costs[:4] = 1.0
        r = greedy_dynamic_schedule(costs, 4)
        assert r.makespan == pytest.approx(1.0)  # each worker takes one

    def test_graham_bound(self):
        rng = np.random.default_rng(1)
        costs = rng.random(100)
        w = 7
        r = greedy_dynamic_schedule(costs, w)
        opt_lb = max(costs.max(), costs.sum() / w)
        assert r.makespan <= (2 - 1 / w) * opt_lb + 1e-12

    def test_empty(self):
        r = greedy_dynamic_schedule(np.array([]), 4)
        assert r.makespan == 0.0


class TestCilk:
    def test_contiguous_leaves(self):
        # Heavy cluster hurts less than static but more than ideal when it
        # fits into one grain-sized leaf.
        costs = np.zeros(64)
        costs[:8] = 1.0
        r = cilk_recursive_schedule(costs, 4, grain=8)
        assert 2.0 <= r.makespan <= 8.0

    def test_balanced_input_near_ideal(self):
        costs = np.full(384, 1.0)
        r = cilk_recursive_schedule(costs, 48)
        assert r.makespan == pytest.approx(384 / 48, rel=0.3)

    def test_steal_overhead_charged(self):
        costs = np.full(64, 1.0)
        a = cilk_recursive_schedule(costs, 4, steal_overhead=0.0)
        b = cilk_recursive_schedule(costs, 4, steal_overhead=0.5)
        assert b.makespan >= a.makespan

    def test_empty(self):
        r = cilk_recursive_schedule(np.array([]), 4)
        assert r.makespan == 0.0


class TestNumaSchedules:
    def test_static_hier_socket_isolation(self):
        # 8 tasks, 2 sockets x 2 threads; socket 1's tasks are heavy.
        costs = np.array([1, 1, 1, 1, 4, 4, 4, 4], dtype=float)
        homes = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        r = static_numa_schedule(costs, homes, 2, 2)
        assert r.makespan == pytest.approx(8.0)  # socket 1: 16 work / 2 threads

    def test_hier_dynamic_within_socket(self):
        costs = np.array([4, 0, 0, 0, 1, 1, 1, 1], dtype=float)
        homes = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        r = hierarchical_numa_schedule(costs, homes, 2, 2)
        # socket 0: dynamic over [4,0,0,0] with 2 threads = 4
        assert r.makespan == pytest.approx(4.0)

    def test_mismatched_homes_rejected(self):
        with pytest.raises(SimulationError):
            static_numa_schedule(np.ones(4), np.zeros(3, dtype=np.int64), 2, 2)

    def test_negative_costs_rejected(self):
        with pytest.raises(SimulationError):
            static_block_schedule(np.array([-1.0]), 2)

    def test_zero_workers_rejected(self):
        with pytest.raises(SimulationError):
            greedy_dynamic_schedule(np.ones(4), 0)


class TestPolicyComparison:
    def test_dynamic_tolerates_clusters(self):
        """The paper's core systems claim: dynamic scheduling tolerates the
        clustered imbalance that static block scheduling suffers from."""
        rng = np.random.default_rng(2)
        for _ in range(10):
            costs = np.zeros(96)
            heavy = rng.integers(0, 12)  # heavy run inside one block
            costs[heavy * 8 : heavy * 8 + 8] = rng.pareto(1.5, 8) + 1.0
            s = static_block_schedule(costs, 12).makespan
            d = greedy_dynamic_schedule(costs, 12).makespan
            assert d <= s + 1e-12

    def test_dynamic_within_graham_factor_of_static(self):
        """On arbitrary inputs greedy list scheduling may lose to a lucky
        static split, but never by more than Graham's (2 - 1/W) factor."""
        rng = np.random.default_rng(3)
        w = 8
        for _ in range(10):
            costs = rng.pareto(1.5, size=96)
            s = static_block_schedule(costs, w).makespan
            d = greedy_dynamic_schedule(costs, w).makespan
            assert d <= (2 - 1 / w) * s + 1e-12


# ----------------------------------------------------------------------
# Batched schedulers vs the oracle, row by row, bit for bit
# ----------------------------------------------------------------------

@st.composite
def cost_matrices(draw):
    """(R x T) costs with exact ties, all-zero columns and rows, and
    magnitudes spanning the cost model's range."""
    rows = draw(st.integers(min_value=0, max_value=5))
    tasks = draw(st.integers(min_value=0, max_value=130))
    values = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 0.5, 3e-7]),
        st.floats(min_value=0.0, max_value=1e-3, allow_nan=False, allow_infinity=False),
    )
    costs = draw(hnp.arrays(np.float64, (rows, tasks), elements=values))
    if tasks:
        zero_cols = draw(st.lists(st.integers(0, tasks - 1), max_size=tasks // 2))
        costs[:, zero_cols] = 0.0
    return costs


def _rows(oracle, costs, *args, **kwargs) -> np.ndarray:
    return np.array([oracle(row, *args, **kwargs).makespan for row in costs],
                    dtype=np.float64).reshape(costs.shape[0])


@given(cost_matrices(), st.integers(min_value=1, max_value=20))
@settings(max_examples=150, deadline=None)
def test_batched_flat_schedules_equal_oracle(costs, workers):
    for fn, oracle in ((batched.static_block_schedule, static_block_schedule),
                       (batched.greedy_dynamic_schedule, greedy_dynamic_schedule)):
        got = fn(costs, workers)
        assert got.dtype == np.float64
        assert np.array_equal(got, _rows(oracle, costs, workers)), fn.__name__


@given(cost_matrices(), st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=9),
       st.sampled_from([0.0, 2.0e-7, 0.5]))
@settings(max_examples=150, deadline=None)
def test_batched_cilk_equals_oracle(costs, workers, grain, overhead):
    got = batched.cilk_recursive_schedule(costs, workers, grain=grain,
                                          steal_overhead=overhead)
    want = _rows(cilk_recursive_schedule, costs, workers, grain=grain,
                 steal_overhead=overhead)
    assert np.array_equal(got, want)


@given(cost_matrices(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_batched_numa_schedules_equal_oracle(costs, sockets, threads, block_homes):
    tasks = costs.shape[1]
    if block_homes:
        homes = (np.arange(tasks) * sockets) // max(tasks, 1)
    else:
        homes = np.arange(tasks) % sockets
    for fn, oracle in ((batched.static_numa_schedule, static_numa_schedule),
                       (batched.hierarchical_numa_schedule, hierarchical_numa_schedule)):
        got = fn(costs, homes, sockets, threads)
        assert np.array_equal(got, _rows(oracle, costs, homes, sockets, threads)), fn.__name__


@pytest.mark.parametrize("workers,grain", [(48, 1), (8, 1), (128, 1), (7, 1), (4, 6)])
def test_batched_paper_shapes_equal_oracle(workers, grain):
    """384 accounting chunks on the machines' thread counts: laptop's
    6-task Cilk leaves and 48-task static blocks, big-numa's 128 threads,
    and a thread count that does not divide the chunks."""
    rng = np.random.default_rng(workers)
    costs = rng.pareto(1.5, size=(6, 384)) * 1e-4
    costs[:, rng.random(384) < 0.25] = 0.0
    costs[2] = 0.0
    costs[3] = costs[4]
    assert np.array_equal(batched.static_block_schedule(costs, workers),
                          _rows(static_block_schedule, costs, workers))
    assert np.array_equal(batched.greedy_dynamic_schedule(costs, workers),
                          _rows(greedy_dynamic_schedule, costs, workers))
    assert np.array_equal(
        batched.cilk_recursive_schedule(costs, workers, grain=grain, steal_overhead=2e-7),
        _rows(cilk_recursive_schedule, costs, workers, grain=grain, steal_overhead=2e-7))


class TestBatchedErrors:
    def test_negative_costs_rejected(self):
        with pytest.raises(SimulationError):
            batched.greedy_dynamic_schedule(np.array([[1.0, -1.0]]), 2)

    def test_non_positive_workers_rejected(self):
        for workers in (0, -1):
            with pytest.raises(SimulationError):
                batched.static_block_schedule(np.ones((1, 4)), workers)

    def test_one_dimensional_costs_rejected(self):
        with pytest.raises(SimulationError):
            batched.cilk_recursive_schedule(np.ones(4), 2)

    def test_mismatched_homes_rejected(self):
        for fn in (batched.static_numa_schedule, batched.hierarchical_numa_schedule):
            with pytest.raises(SimulationError):
                fn(np.ones((2, 4)), np.zeros(3, dtype=np.int64), 2, 2)

    def test_empty_inputs(self):
        for costs in (np.zeros((0, 5)), np.zeros((3, 0))):
            rows = costs.shape[0]
            assert np.array_equal(batched.greedy_dynamic_schedule(costs, 4), np.zeros(rows))
            assert np.array_equal(batched.cilk_recursive_schedule(costs, 4), np.zeros(rows))
            assert np.array_equal(batched.static_block_schedule(costs, 4), np.zeros(rows))
