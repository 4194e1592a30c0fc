"""Independent reference implementations the test suite checks against.

Each oracle computes, by the most direct route, what an optimized code
path in ``repro`` must reproduce bit for bit.  They live in the test tree
because nothing in the library calls them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError, SimulationError
from repro.graph.csr import INDEX_DTYPE


def chunk_boundaries_reference(
    in_degrees: np.ndarray, num_partitions: int
) -> np.ndarray:
    """Sequential reference scan of Algorithm 1, in exact arithmetic.

    The paper-shaped greedy: walk vertices in ID order, add each to the
    open partition, and after each addition close the partition while the
    running edge count has reached the next multiple of the exact average
    ``|E| / P`` (the ``|E[i]| >= avg`` test, applied after the vertex
    lands — so every cut consumes the vertex that reached it, and an
    overshooting hub can close several partitions at once, leaving them
    empty: Figure 1's imbalance).  The target advances by ``avg`` from
    the previous *target*, not from the achieved count, and the reach
    test is the cross-multiplied integer comparison ``c * P >= i * |E|``
    — the same predicate :func:`repro.partition.chunk_boundaries`
    vectorizes with ceil-division targets.  O(n + P) and deliberately
    loop-based.
    """
    degrees = np.ascontiguousarray(in_degrees, dtype=INDEX_DTYPE)
    n = degrees.size
    p = int(num_partitions)
    if p <= 0:
        raise PartitionError("num_partitions must be positive")
    total = int(degrees.sum())
    boundaries = np.empty(p + 1, dtype=INDEX_DTYPE)
    boundaries[0] = 0
    i = 1
    count = 0
    for v in range(n):
        if i >= p:
            break
        count += int(degrees[v])
        while i < p and count * p >= i * total:
            boundaries[i] = v + 1
            i += 1
    while i < p:  # ran out of vertices before targets: empty tail chunks
        boundaries[i] = n
        i += 1
    boundaries[p] = n
    return boundaries


def per_cell_results(cells, cache) -> list:
    """Every sweep cell computed on its own, in cell order.

    The calls a sweep without execution grouping makes: each graph is
    loaded and each (graph, ordering, partition count) prepared once,
    then every cell gets its own :func:`repro.experiments.run` — a fresh
    execution that never touches the trace store.  ``cache`` is the
    artifact cache for graphs and orderings (``False`` disables it).
    """
    from repro import store
    from repro.experiments import prepare, run
    from repro.frameworks.personality import FRAMEWORKS

    graphs: dict = {}
    prepared: dict = {}
    results = []
    for cell in cells:
        gkey = (cell.dataset, tuple(sorted(cell.params.items())))
        if gkey not in graphs:
            graphs[gkey] = store.load_graph(cell.dataset, cache=cache, **cell.params)
        graph = graphs[gkey]
        parts = FRAMEWORKS[cell.framework].default_partitions
        pkey = (gkey, cell.ordering, parts)
        if pkey not in prepared:
            prepared[pkey] = prepare(graph, cell.ordering, parts, cache=cache)
        results.append(run(
            graph, cell.algorithm, cell.framework, ordering=cell.ordering,
            prepared=prepared[pkey], backend=cell.backend,
            machine=cell.machine, **cell.algo_kwargs,
        ))
    return results


# ----------------------------------------------------------------------
# Scheduling and pricing: one loop, one record, one heap at a time
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling one loop's tasks on ``num_workers`` workers."""

    makespan: float
    per_worker: np.ndarray  # busy time of each worker
    policy: str

    @property
    def total_work(self) -> float:
        return float(self.per_worker.sum())

    @property
    def imbalance_ratio(self) -> float:
        """makespan / ideal — 1.0 means perfectly balanced."""
        num_workers = self.per_worker.size
        ideal = self.total_work / num_workers if num_workers else 0.0
        return self.makespan / ideal if ideal > 0 else 1.0


def _check_costs(costs, num_workers: int) -> np.ndarray:
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 1:
        raise SimulationError("task costs must be a 1-D array")
    if np.any(costs < 0):
        raise SimulationError("task costs must be non-negative")
    if num_workers <= 0:
        raise SimulationError("num_workers must be positive")
    return costs


def static_block_schedule(costs, num_workers: int) -> ScheduleResult:
    """Worker w sums tasks [w*T/W, (w+1)*T/W) as one 1-D slice."""
    costs = _check_costs(costs, num_workers)
    per_worker = np.zeros(num_workers, dtype=np.float64)
    base, extra = divmod(costs.size, num_workers)
    lo = 0
    for w in range(num_workers):
        hi = lo + base + (1 if w < extra else 0)
        per_worker[w] = costs[lo:hi].sum()
        lo = hi
    return ScheduleResult(float(per_worker.max(initial=0.0)), per_worker, "static")


def greedy_dynamic_schedule(costs, num_workers: int) -> ScheduleResult:
    """List scheduling on a ``(finish time, worker)`` heap."""
    costs = _check_costs(costs, num_workers)
    finish = [(0.0, w) for w in range(num_workers)]
    heapq.heapify(finish)
    acc = [0.0] * num_workers
    for c in costs.tolist():
        t, w = heapq.heappop(finish)
        t += c
        acc[w] += c
        heapq.heappush(finish, (t, w))
    makespan = max(t for t, _ in finish)
    return ScheduleResult(makespan, np.array(acc, dtype=np.float64), "dynamic")


def cilk_recursive_schedule(
    costs, num_workers: int, grain: int = 1, steal_overhead: float = 0.0
) -> ScheduleResult:
    """Halve the range into contiguous leaves, sum each leaf, list-schedule."""
    costs = _check_costs(costs, num_workers)
    n = costs.size
    if n == 0:
        return ScheduleResult(0.0, np.zeros(num_workers), "cilk")
    auto_grain = max(int(grain), (n + 8 * num_workers - 1) // (8 * num_workers))
    leaves: list[tuple[int, int]] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        if hi - lo <= auto_grain:
            leaves.append((lo, hi))
        else:
            mid = (lo + hi) // 2
            stack.append((mid, hi))
            stack.append((lo, mid))
    leaves.sort()
    leaf_costs = np.array([
        costs[lo:hi].sum() + (steal_overhead if i else 0.0)
        for i, (lo, hi) in enumerate(leaves)
    ])
    inner = greedy_dynamic_schedule(leaf_costs, num_workers)
    return ScheduleResult(inner.makespan, inner.per_worker, "cilk")


def _per_socket(inner, policy, costs, home_sockets, num_sockets, threads_per_socket):
    costs = _check_costs(costs, num_sockets * threads_per_socket)
    home_sockets = np.asarray(home_sockets, dtype=np.int64)
    if home_sockets.shape != costs.shape:
        raise SimulationError("home_sockets must match the cost vector")
    per_worker = np.zeros(num_sockets * threads_per_socket, dtype=np.float64)
    makespan = 0.0
    for s in range(num_sockets):
        result = inner(costs[home_sockets == s], threads_per_socket)
        per_worker[s * threads_per_socket : (s + 1) * threads_per_socket] = result.per_worker
        makespan = max(makespan, result.makespan)
    return ScheduleResult(makespan, per_worker, policy)


def static_numa_schedule(costs, home_sockets, num_sockets, threads_per_socket):
    """Polymer: tasks pinned to their home socket, static within it."""
    return _per_socket(static_block_schedule, "static-hier", costs, home_sockets,
                       num_sockets, threads_per_socket)


def hierarchical_numa_schedule(costs, home_sockets, num_sockets, threads_per_socket):
    """GraphGrind: tasks pinned to their home socket, dynamic within it."""
    return _per_socket(greedy_dynamic_schedule, "numa-hier", costs, home_sockets,
                       num_sockets, threads_per_socket)


def price_per_record(model, trace, locality: tuple[float, float]) -> np.ndarray:
    """Per-iteration seconds of ``model.price(trace, locality)``, computed
    one record at a time: a per-partition :class:`PartitionWork` (or
    vertexmap cost vector) per record and one heap-scheduler call per
    record."""
    from repro.machine.cost import PartitionWork

    src_miss = min(1.0, model.miss_floor + model.miss_scale * locality[0])
    dst_miss = min(1.0, model.miss_floor + model.miss_scale * locality[1])
    if not model.locality_optimized:
        src_miss = min(1.0, src_miss * 1.25 + 0.05)
        dst_miss = min(1.0, dst_miss * 1.25 + 0.05)
    topo = model.topology
    homes = topo.partition_home_sockets(trace.num_partitions)

    def schedule(costs) -> float:
        if model.scheduler == "static":
            return static_block_schedule(costs, topo.num_threads).makespan
        if model.scheduler == "dynamic":
            return greedy_dynamic_schedule(costs, topo.num_threads).makespan
        if model.scheduler == "cilk":
            return cilk_recursive_schedule(
                costs, topo.num_threads, steal_overhead=model.steal_overhead
            ).makespan
        numa = (static_numa_schedule if model.scheduler == "static-hier"
                else hierarchical_numa_schedule)
        return numa(costs, homes, topo.num_sockets, topo.threads_per_socket).makespan

    per_iter = np.zeros(len(trace.records), dtype=np.float64)
    for i, rec in enumerate(trace.records):
        if rec.kind == "vertexmap":
            counts = rec.part_vertices.astype(np.float64)
            if model.numa_aware:
                total = counts.sum()
                if total == 0:
                    continue
                mean = total / counts.size
                deviation = np.abs(counts - mean).sum() / (2.0 * total)
                remote = 0.05 + 0.9 * deviation
            else:
                remote = model.interleaved_remote_fraction
            per_iter[i] = schedule(
                model.cost_model.vertexmap_seconds(counts, remote_fraction=remote)
            )
            continue
        rec_src, rec_dst = src_miss, dst_miss
        if rec.src_miss >= 0.0 and not (
            model.locality_optimized and rec.density.value == "dense"
        ):
            rec_src = min(1.0, model.miss_floor + model.miss_scale * rec.src_miss)
            rec_dst = min(1.0, model.miss_floor + model.miss_scale * rec.dst_miss)
        work = PartitionWork(
            edges=rec.part_edges.astype(np.float64),
            unique_dsts=rec.part_dsts.astype(np.float64),
            unique_srcs=rec.part_srcs.astype(np.float64),
            vertices=np.zeros(rec.part_edges.size, dtype=np.float64),
            src_miss_fraction=rec_src,
            dst_miss_fraction=rec_dst,
        )
        remote = np.full(homes.size, 0.15 if model.numa_aware
                         else model.interleaved_remote_fraction)
        per_iter[i] = schedule(model.cost_model.partition_seconds(work, remote_fraction=remote))
    return per_iter
