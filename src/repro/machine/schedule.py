"""Deterministic parallel-loop scheduling simulators.

The paper's central systems distinction (Section IV) is *how parallel work
is scheduled*:

* **Ligra** expresses loops in Cilk, which recursively splits the iteration
  range and lets an idle worker steal the other half — effectively dynamic
  load balancing at chunk granularity.
* **Polymer** statically binds one partition per NUMA socket and its
  threads: loop time = the slowest thread (makespan of a fixed assignment).
* **GraphGrind** statically binds partition *groups* to sockets, then
  schedules dynamically inside each socket.

Given per-task costs (seconds per partition or per chunk), these
simulators compute the loop completion time under each policy.  They are
batched: each takes an (R x T) cost matrix — R independent loops of T
tasks, one per row — and returns the R makespans, so pricing a trace
schedules all of its unique steps in one call.  They are deterministic —
no random victim selection — so experiment output is reproducible
bit-for-bit.

Every makespan is bit-identical to a one-loop-at-a-time simulation (the
heap list schedulers the test suite keeps as its oracle):

* block sums gather each block size into a C-contiguous array and reduce
  its last axis, where numpy applies the same pairwise summation as to
  the 1-D slice of one loop (a strided ``costs[:, lo:hi].sum(axis=1)``
  is not guaranteed to);
* dynamic (list) scheduling runs the rows in lockstep over the task
  columns: each row's next task goes to the worker with the earliest
  finish time, lowest index first (``argmin`` returns the first minimum —
  the heap's ``(time, worker)`` order), and the cost is added there.  A
  zero-cost task leaves every finish time unchanged, so columns that are
  zero in every row are skipped.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "static_block_schedule",
    "greedy_dynamic_schedule",
    "cilk_recursive_schedule",
    "static_numa_schedule",
    "hierarchical_numa_schedule",
]


def _check(costs: np.ndarray, num_workers: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 2:
        raise SimulationError("task costs must be an (R x T) matrix, one loop per row")
    if np.any(costs < 0):
        raise SimulationError("task costs must be non-negative")
    if num_workers <= 0:
        raise SimulationError("num_workers must be positive")
    return costs


def _check_homes(costs: np.ndarray, home_sockets: np.ndarray) -> np.ndarray:
    home_sockets = np.asarray(home_sockets, dtype=np.int64)
    if home_sockets.shape != costs.shape[1:]:
        raise SimulationError("home_sockets must have one entry per task column")
    return home_sockets


def _block_sums(costs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """(R x B) sums of the contiguous column blocks ``[bounds[b],
    bounds[b + 1])``, each bit-identical to ``costs[r, lo:hi].sum()``.

    Blocks of one size are gathered into a C-contiguous (R x B_s x size)
    array and reduced over its last axis.
    """
    lo = bounds[:-1]
    sizes = np.diff(bounds)
    out = np.empty((costs.shape[0], sizes.size), dtype=np.float64)
    for size in np.unique(sizes):
        which = np.flatnonzero(sizes == size)
        cols = lo[which, None] + np.arange(size)
        out[:, which] = np.ascontiguousarray(costs[:, cols]).sum(axis=-1)
    return out


def static_block_schedule(costs: np.ndarray, num_workers: int) -> np.ndarray:
    """Contiguous block assignment: worker w gets tasks [w*T/W, (w+1)*T/W).

    This is OpenMP ``schedule(static)`` / Polymer's partition binding: the
    loop completes when the most loaded worker does, so any imbalance in
    the cost vector translates 1:1 into lost time.
    """
    costs = _check(costs, num_workers)
    base, extra = divmod(costs.shape[1], num_workers)
    sizes = np.full(num_workers, base, dtype=np.int64)
    sizes[:extra] += 1
    per_worker = _block_sums(costs, np.concatenate(([0], np.cumsum(sizes))))
    return per_worker.max(axis=1, initial=0.0)


def greedy_dynamic_schedule(costs: np.ndarray, num_workers: int) -> np.ndarray:
    """List scheduling: each finishing worker grabs the next task in order.

    Models a dynamic work queue (OpenMP ``schedule(dynamic,1)``); Graham's
    bound caps the makespan at (2 - 1/W) x optimal, so fine-grained queues
    absorb most imbalance — the reason Ligra benefits less from VEBO.
    """
    costs = _check(costs, num_workers)
    rows = costs.shape[0]
    finish = np.zeros((rows, num_workers), dtype=np.float64)
    flat = finish.reshape(-1)
    row_start = np.arange(rows, dtype=np.int64) * num_workers
    for column in costs.T[costs.any(axis=0)]:
        flat[row_start + finish.argmin(axis=1)] += column
    return finish.max(axis=1, initial=0.0)


def cilk_recursive_schedule(
    costs: np.ndarray,
    num_workers: int,
    grain: int = 1,
    steal_overhead: float = 0.0,
) -> np.ndarray:
    """Cilk-style recursive range splitting with randomized-steal semantics
    approximated by greedy placement of the split leaves.

    The iteration range is halved until a leaf holds at most
    ``max(grain, ceil(T / (8 W)))`` consecutive tasks (Cilk's default grain
    heuristic), and the resulting *contiguous* leaves are list-scheduled.
    Contiguity is the key fidelity point: a Cilk worker executes a
    consecutive chunk of the range, so per-chunk costs aggregate exactly the
    way Ligra's implicit chunking aggregates vertices — VEBO helps because
    every 1/384th range slice carries equal work (Section V-A).
    ``steal_overhead`` seconds are charged per leaf beyond the first.
    """
    costs = _check(costs, num_workers)
    n = costs.shape[1]
    if n == 0:
        return np.zeros(costs.shape[0], dtype=np.float64)
    auto_grain = max(int(grain), (n + 8 * num_workers - 1) // (8 * num_workers))
    if auto_grain == 1:
        # Halving a range down to grain 1 yields exactly the singleton
        # leaves [i, i+1) in order — the common 384-chunk / 48-thread
        # configuration.
        leaf_costs = costs.copy()
    else:
        # Build leaf ranges by iterative halving.
        starts: list[int] = []
        stack = [(0, n)]
        while stack:
            lo, hi = stack.pop()
            if hi - lo <= auto_grain:
                starts.append(lo)
            else:
                mid = (lo + hi) // 2
                stack.append((mid, hi))
                stack.append((lo, mid))
        leaf_costs = _block_sums(costs, np.array(sorted(starts) + [n], dtype=np.int64))
    leaf_costs[:, 1:] += steal_overhead
    return greedy_dynamic_schedule(leaf_costs, num_workers)


def static_numa_schedule(
    costs: np.ndarray,
    home_sockets: np.ndarray,
    num_sockets: int,
    threads_per_socket: int,
) -> np.ndarray:
    """Polymer's policy: static at both levels.

    Each task (chunk) is pinned to its home socket; inside a socket the
    chunks are *statically* block-distributed over the socket's threads.
    No thread ever helps another, so imbalance at either level translates
    directly into lost time — the configuration the paper finds most
    sensitive to vertex ordering.
    """
    costs = _check(costs, num_sockets * threads_per_socket)
    home_sockets = _check_homes(costs, home_sockets)
    makespan = np.zeros(costs.shape[0], dtype=np.float64)
    for s in range(num_sockets):
        mine = costs[:, home_sockets == s]
        makespan = np.maximum(makespan, static_block_schedule(mine, threads_per_socket))
    return makespan


def hierarchical_numa_schedule(
    costs: np.ndarray,
    home_sockets: np.ndarray,
    num_sockets: int,
    threads_per_socket: int,
) -> np.ndarray:
    """GraphGrind's policy: static across sockets, dynamic within.

    Each task (partition) is pinned to its home socket; inside a socket the
    partitions are dynamically distributed over the socket's threads.  The
    loop completes when the slowest socket does.

    Every (row, socket) pair is one row of a single lockstep; a socket
    with fewer tasks than the busiest one is padded with zero-cost tasks,
    which are no-ops.
    """
    costs = _check(costs, num_sockets * threads_per_socket)
    home_sockets = _check_homes(costs, home_sockets)
    rows = costs.shape[0]
    per_socket = [costs[:, home_sockets == s] for s in range(num_sockets)]
    width = max(block.shape[1] for block in per_socket)
    stacked = np.zeros((num_sockets, rows, width), dtype=np.float64)
    for s, block in enumerate(per_socket):
        stacked[s, :, : block.shape[1]] = block
    makespans = greedy_dynamic_schedule(
        stacked.reshape(num_sockets * rows, width), threads_per_socket
    )
    return makespans.reshape(num_sockets, rows).max(axis=0, initial=0.0)
