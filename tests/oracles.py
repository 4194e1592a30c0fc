"""Independent reference implementations the test suite checks against.

Each oracle computes, by the most direct route, what an optimized code
path in ``repro`` must reproduce bit for bit.  They live in the test tree
because nothing in the library calls them.  Importing this module
registers :class:`ReferenceEngine` as the ``reference`` engine backend,
so the test tree can select the oracle by name; the library itself ships
only ``vectorized`` and ``parallel``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import PartitionError, SimulationError
from repro.frameworks.backends import register_backend
from repro.frameworks.engine import _MISS_SAMPLE, DIRECTION_THRESHOLD_DENOM, EdgeOp
from repro.frameworks.frontier import Frontier
from repro.frameworks.trace import IterationRecord, WorkTrace
from repro.graph.csr import INDEX_DTYPE, CSRMatrix, Graph
from repro.machine.locality import ELEMS_PER_LINE, reuse_window
from repro.partition.stats import PartitionStats


# ----------------------------------------------------------------------
# Canonical (group, member) order: one lexsort per view
# ----------------------------------------------------------------------

def from_pairs_reference(index_by, other, num_vertices: int) -> CSRMatrix:
    """``other`` grouped by ``index_by``, each group sorted ascending, by a
    ``lexsort`` on (group, member) — the order every CSR/CSC build and
    ``CSRMatrix.from_pairs`` must reproduce bit for bit."""
    index_by = np.asarray(index_by, dtype=INDEX_DTYPE)
    other = np.asarray(other, dtype=INDEX_DTYPE)
    offsets = np.zeros(num_vertices + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(index_by, minlength=num_vertices), out=offsets[1:])
    return CSRMatrix(offsets=offsets, adj=other[np.lexsort((other, index_by))])


def graph_from_edges_reference(src, dst, num_vertices: int) -> Graph:
    """Both views of ``Graph.from_edges`` through :func:`from_pairs_reference`."""
    return Graph(
        csr=from_pairs_reference(src, dst, num_vertices),
        csc=from_pairs_reference(dst, src, num_vertices),
    )


def compute_stats_reference(graph: Graph, boundaries: np.ndarray) -> PartitionStats:
    """The Figure 1 counters, the unique sources by a ``lexsort``: every
    edge tagged with its destination's partition, the (partition, source)
    pairs lexsorted, and the first of each run of equal pairs counted."""
    boundaries = np.asarray(boundaries, dtype=np.int64)
    p = boundaries.size - 1
    n = graph.num_vertices
    in_degs = graph.in_degrees()
    cums = np.concatenate([[0], np.cumsum(in_degs)])
    nz = np.concatenate([[0], np.cumsum((in_degs > 0).astype(np.int64))])
    vertex_part = np.searchsorted(boundaries[1:], np.arange(n), side="right")
    parts = vertex_part[np.repeat(np.arange(n, dtype=INDEX_DTYPE), in_degs)]
    srcs = graph.csc.adj
    if srcs.size:
        order = np.lexsort((srcs, parts))
        sp, ss = parts[order], srcs[order]
        fresh = np.empty(sp.size, dtype=bool)
        fresh[0] = True
        fresh[1:] = (sp[1:] != sp[:-1]) | (ss[1:] != ss[:-1])
        unique_sources = np.bincount(sp[fresh], minlength=p).astype(np.int64)
    else:
        unique_sources = np.zeros(p, dtype=np.int64)
    return PartitionStats(
        edges=(cums[boundaries[1:]] - cums[boundaries[:-1]]).astype(np.int64),
        vertices=np.diff(boundaries).astype(np.int64),
        unique_destinations=(nz[boundaries[1:]] - nz[boundaries[:-1]]).astype(np.int64),
        unique_sources=unique_sources,
    )


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
    from repro.frameworks.personality import ACCOUNTING_CHUNKS

    graphs: dict = {}
    prepared: dict = {}
    results = []
    for cell in cells:
        gkey = (cell.dataset, tuple(sorted(cell.params.items())))
        if gkey not in graphs:
            graphs[gkey] = store.load_graph(cell.dataset, cache=cache, **cell.params)
        graph = graphs[gkey]
        pkey = (gkey, cell.ordering)
        if pkey not in prepared:
            prepared[pkey] = prepare(graph, cell.ordering, ACCOUNTING_CHUNKS, cache=cache)
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


def price_per_record(model, trace, locality: tuple[float, float], machine) -> np.ndarray:
    """Per-iteration seconds of ``model.price(trace, locality, machine)``,
    computed one record at a time: a per-partition :class:`PartitionWork`
    (or vertexmap cost vector) per record and one heap-scheduler call per
    record."""
    from repro.frameworks.personality import (
        INTERLEAVED_REMOTE_FRACTION, MISS_FLOOR, MISS_SCALE, STEAL_OVERHEAD,
    )
    from repro.machine.cost import PartitionWork
    from repro.machine.models import resolve_machine

    machine = resolve_machine(machine)
    cost_model = machine.derive_cost_model()
    src_miss = min(1.0, MISS_FLOOR + MISS_SCALE * locality[0])
    dst_miss = min(1.0, MISS_FLOOR + MISS_SCALE * locality[1])
    if not model.locality_optimized:
        src_miss = min(1.0, src_miss * 1.25 + 0.05)
        dst_miss = min(1.0, dst_miss * 1.25 + 0.05)
    topo = machine.topology
    homes = topo.partition_home_sockets(trace.num_partitions)

    def schedule(costs) -> float:
        if model.scheduler == "cilk":
            return cilk_recursive_schedule(
                costs, topo.num_threads, steal_overhead=STEAL_OVERHEAD
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
                remote = INTERLEAVED_REMOTE_FRACTION
            per_iter[i] = schedule(
                cost_model.vertexmap_seconds(counts, remote_fraction=remote)
            )
            continue
        rec_src, rec_dst = src_miss, dst_miss
        if rec.src_miss >= 0.0 and not (
            model.locality_optimized and rec.density.value == "dense"
        ):
            rec_src = min(1.0, MISS_FLOOR + MISS_SCALE * rec.src_miss)
            rec_dst = min(1.0, MISS_FLOOR + MISS_SCALE * rec.dst_miss)
        work = PartitionWork(
            edges=rec.part_edges.astype(np.float64),
            unique_dsts=rec.part_dsts.astype(np.float64),
            unique_srcs=rec.part_srcs.astype(np.float64),
            vertices=np.zeros(rec.part_edges.size, dtype=np.float64),
            src_miss_fraction=rec_src,
            dst_miss_fraction=rec_dst,
        )
        remote = np.full(homes.size, 0.15 if model.numa_aware
                         else INTERLEAVED_REMOTE_FRACTION)
        per_iter[i] = schedule(cost_model.partition_seconds(work, remote_fraction=remote))
    return per_iter


# ----------------------------------------------------------------------
# Row gathers and sampled stream locality, as the engine first had them.
# The oracle engine runs these copies, not the library's: the library's
# fast paths are checked against them, and ``test_backend_speedup`` times
# the oracle against the engine, which a shared helper would blur.
# ----------------------------------------------------------------------

def gather_rows_reference(offsets: np.ndarray, adj: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the adjacency lists of ``rows`` from a compressed structure.

    Returns ``(flat_positions, row_of_each)`` where ``adj[flat_positions]``
    are the concatenated neighbour lists and ``row_of_each`` repeats each
    row id by its degree.  Fully vectorized (no per-row concatenate).
    """
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE)
    # positions = starts[i] + (0..counts[i]) for each row i, flattened.
    row_rep = np.repeat(np.arange(rows.size, dtype=INDEX_DTYPE), counts)
    cum = np.zeros(rows.size, dtype=INDEX_DTYPE)
    np.cumsum(counts[:-1], out=cum[1:])
    local = np.arange(total, dtype=INDEX_DTYPE) - cum[row_rep]
    flat = starts[row_rep] + local
    return flat, rows[row_rep]


def line_hit_fraction_reference(indices: np.ndarray, window: int = 4096) -> float:
    """Fraction of accesses whose cache line was touched in the previous
    ``window`` accesses (a fixed-window LRU approximation).  ``indices``
    are non-negative element indices.

    Implementation: for every access record the stream position of the
    previous access to the same line; a hit is a reuse distance (in
    accesses, not distinct lines) below the window.  This
    over-approximates a real LRU stack distance but ranks orders
    identically in practice.  The accesses are grouped by line with a
    stable bucket sort (line ids are small non-negative integers: one
    16-bit radix pass below 65,536 lines), whose permutation is itself
    the sorted stream positions.
    """
    from repro.ordering.base import stable_bucket_argsort

    if indices.size == 0:
        return 1.0
    line_ids = np.asarray(indices, dtype=np.int64) // ELEMS_PER_LINE
    pos = stable_bucket_argsort(line_ids)
    sorted_lines = line_ids[pos]
    same = np.empty(line_ids.size, dtype=bool)
    same[0] = False
    same[1:] = sorted_lines[1:] == sorted_lines[:-1]
    gap = np.empty(line_ids.size, dtype=np.int64)
    gap[0] = np.iinfo(np.int64).max
    gap[1:] = pos[1:] - pos[:-1]
    hits = same & (gap <= window)
    return float(np.count_nonzero(hits)) / line_ids.size


def stream_miss_reference(srcs: np.ndarray, dsts: np.ndarray, num_vertices: int) -> tuple[float, float]:
    """Sampled miss fractions of one step's (source, destination) streams."""
    if srcs.size == 0:
        return 0.0, 0.0
    if srcs.size > _MISS_SAMPLE:
        start = (srcs.size - _MISS_SAMPLE) // 2
        srcs = srcs[start : start + _MISS_SAMPLE]
        dsts = dsts[start : start + _MISS_SAMPLE]
    window = reuse_window(num_vertices)
    return (
        1.0 - line_hit_fraction_reference(srcs, window=window),
        1.0 - line_hit_fraction_reference(dsts, window=window),
    )


# ----------------------------------------------------------------------
# Frontier engine: mask compression and ufunc.at scatters, every step
# accounted from scratch
# ----------------------------------------------------------------------

class ReferenceEngine:
    """The original frontier engine, kept as the differential oracle.

    Registered as the ``reference`` engine backend when this module is
    imported.  The shipped :class:`~repro.frameworks.vectorized.VectorizedEngine`
    must match it bit for bit on every step; ``exact_sources=True`` swaps
    the scaled distinct-source approximation for an exact (partition,
    source) dedup, which the accounting-bound tests check against.

    ``boundaries`` (``int64[P + 1]``) defines the destination chunks used
    for work accounting; they do not affect results, only the trace.
    """

    def __init__(
        self,
        graph: Graph,
        boundaries: np.ndarray,
        trace: WorkTrace,
        exact_sources: bool = False,
    ) -> None:
        self.graph = graph
        self.boundaries = np.ascontiguousarray(boundaries, dtype=INDEX_DTYPE)
        self.trace = trace
        self.exact_sources = exact_sources
        self.num_partitions = self.boundaries.size - 1
        n = graph.num_vertices
        # Partition of each vertex (destination side) — reused every step.
        self._vertex_part = np.searchsorted(
            self.boundaries[1:], np.arange(n, dtype=INDEX_DTYPE), side="right"
        ).astype(INDEX_DTYPE)
        # CSC edge -> destination vertex, precomputed once.
        self._csc_dst = np.repeat(
            np.arange(n, dtype=INDEX_DTYPE), graph.csc.degrees()
        )
        self._csc_part = self._vertex_part[self._csc_dst]
        self._out_degs = graph.out_degrees()
        # Static per-partition totals used to amortize the expensive
        # distinct-source count: the exact (partition, source) dedup costs
        # an O(m log m) lexsort, so by default it is computed once here and
        # per-step counts are scaled by each partition's active-edge
        # fraction (exact for dense steps, proportional for sparse ones).
        # Taking them from the lexsort oracle rather than ``compute_stats``
        # lets the conformance suite check the pair-key sort as well.
        full = compute_stats_reference(graph, self.boundaries)
        self._full_edges = np.maximum(full.edges, 1).astype(np.float64)
        self._full_srcs = full.unique_sources.astype(np.float64)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def _stream_miss_pair(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple[float, float]:
        return stream_miss_reference(srcs, dsts, self.graph.num_vertices)

    def _touched_dsts(self, dsts: np.ndarray) -> np.ndarray:
        """Sorted unique destinations of a step, via a touch-flag array
        (O(n + e) scatter, no sort).  A hook so backends may specialize
        (the result is fully determined: sorted unique int64 ids)."""
        flag = np.zeros(self.graph.num_vertices, dtype=bool)
        flag[dsts] = True
        return np.flatnonzero(flag).astype(INDEX_DTYPE)

    def _record_edgemap(
        self,
        direction: str,
        frontier: Frontier,
        srcs: np.ndarray,
        dsts: np.ndarray,
        count_sources: bool = True,
    ) -> None:
        p = self.num_partitions
        parts = self._vertex_part[dsts]
        part_edges = np.bincount(parts, minlength=p).astype(np.int64)
        # Distinct destinations per partition (via the _touched_dsts hook).
        if dsts.size:
            touched = self._touched_dsts(dsts)
            part_dsts = np.bincount(
                self._vertex_part[touched], minlength=p
            ).astype(np.int64)
        else:
            part_dsts = np.zeros(p, dtype=np.int64)
        # Distinct sources per partition: exact dedup on demand, otherwise
        # the static per-partition totals scaled by the active fraction.
        if not count_sources or srcs.size == 0:
            part_srcs = np.zeros(p, dtype=np.int64)
        elif self.exact_sources:
            order = np.lexsort((srcs, parts))
            sp, ss = parts[order], srcs[order]
            fresh = np.empty(sp.size, dtype=bool)
            fresh[0] = True
            fresh[1:] = (sp[1:] != sp[:-1]) | (ss[1:] != ss[:-1])
            part_srcs = np.bincount(sp[fresh], minlength=p).astype(np.int64)
        else:
            frac = np.minimum(part_edges / self._full_edges, 1.0)
            part_srcs = np.ceil(self._full_srcs * frac).astype(np.int64)
        # Per-step locality of the *actual* access streams (sampled).  A
        # BFS wave in a community-local ordering reads tightly clustered
        # sources; a random permutation scatters the same wave across the
        # whole array.  Layout-level measurements cannot see that, so each
        # record carries its own miss fractions.  (Routed through a method
        # so backends may memoize the — deterministic — measurement.)
        src_miss, dst_miss = self._stream_miss_pair(srcs, dsts)
        self.trace.append(
            IterationRecord(
                kind="edgemap",
                direction=direction,
                density=frontier.classify(self.graph),
                active_vertices=frontier.count(),
                active_edges=int(dsts.size),
                part_edges=part_edges,
                part_dsts=part_dsts,
                part_srcs=part_srcs,
                part_vertices=np.zeros(p, dtype=np.int64),
                src_miss=src_miss,
                dst_miss=dst_miss,
            )
        )

    def _record_vertexmap(self, frontier: Frontier) -> None:
        p = self.num_partitions
        ids = frontier.ids
        part_vertices = np.bincount(
            self._vertex_part[ids], minlength=p
        ).astype(np.int64) if ids.size else np.zeros(p, dtype=np.int64)
        self.trace.append(
            IterationRecord(
                kind="vertexmap",
                direction="-",
                density=frontier.classify(self.graph),
                active_vertices=frontier.count(),
                active_edges=0,
                part_edges=np.zeros(p, dtype=np.int64),
                part_dsts=np.zeros(p, dtype=np.int64),
                part_srcs=np.zeros(p, dtype=np.int64),
                part_vertices=part_vertices,
            )
        )

    # ------------------------------------------------------------------
    # Reduction kernels
    # ------------------------------------------------------------------
    @staticmethod
    def _reduce_at(reduce: str, acc: np.ndarray, dsts: np.ndarray, vals: np.ndarray) -> None:
        # Reduce in the accumulator's dtype, explicitly.  ``ufunc.at``
        # upcasts a float32 ``vals`` element-by-element, which happens to
        # accumulate in float64 — but silently, and segment kernels
        # (``np.bincount`` / ``reduceat``) would instead reduce in float32
        # and diverge.  One explicit cast pins the contract for every
        # backend: arithmetic happens in ``acc.dtype``.
        vals = np.asarray(vals, dtype=acc.dtype)
        if reduce == "add":
            np.add.at(acc, dsts, vals)
        elif reduce == "min":
            np.minimum.at(acc, dsts, vals)
        else:  # "or"
            np.maximum.at(acc, dsts, vals)

    # ------------------------------------------------------------------
    # edgemap
    # ------------------------------------------------------------------
    def edgemap(
        self,
        frontier: Frontier,
        op: EdgeOp,
        state: dict,
        direction: str = "auto",
        dst_candidates: np.ndarray | None = None,
    ) -> Frontier:
        """One edgemap step; returns the next frontier.

        ``direction`` pins ``"push"``/``"pull"`` or lets the Beamer
        heuristic decide (``"auto"``).  ``dst_candidates`` optionally
        restricts pull mode to a candidate destination set (e.g. BFS only
        pulls into unvisited vertices).
        """
        graph = self.graph
        if frontier.is_empty():
            return Frontier.empty(graph.num_vertices)
        if direction == "auto":
            threshold = graph.num_edges // DIRECTION_THRESHOLD_DENOM
            use_pull = frontier.active_out_edges(graph) + frontier.count() > threshold
            direction = "pull" if use_pull else "push"
        if direction == "pull":
            return self._edgemap_pull(frontier, op, state, dst_candidates)
        if direction == "push":
            return self._edgemap_push(frontier, op, state)
        raise SimulationError(f"unknown direction {direction!r}")

    def _edgemap_pull(
        self,
        frontier: Frontier,
        op: EdgeOp,
        state: dict,
        dst_candidates: np.ndarray | None,
    ) -> Frontier:
        graph = self.graph
        csc = graph.csc
        if dst_candidates is None:
            # All in-edges with an active source.
            active = frontier.mask[csc.adj]
            srcs = csc.adj[active]
            dsts = self._csc_dst[active]
        else:
            flat, dsts_all = gather_rows_reference(csc.offsets, csc.adj, dst_candidates)
            srcs_all = csc.adj[flat]
            active = frontier.mask[srcs_all]
            srcs = srcs_all[active]
            dsts = dsts_all[active]
        return self._finish(frontier, op, state, srcs, dsts, "pull")

    def _edgemap_push(self, frontier: Frontier, op: EdgeOp, state: dict) -> Frontier:
        graph = self.graph
        flat, srcs = gather_rows_reference(graph.csr.offsets, graph.csr.adj, frontier.ids)
        dsts = graph.csr.adj[flat]
        return self._finish(frontier, op, state, srcs, dsts, "push")

    def _finish(
        self,
        frontier: Frontier,
        op: EdgeOp,
        state: dict,
        srcs: np.ndarray,
        dsts: np.ndarray,
        direction: str,
    ) -> Frontier:
        graph = self.graph
        self._record_edgemap(direction, frontier, srcs, dsts)
        if dsts.size == 0:
            return Frontier.empty(graph.num_vertices)
        vals = op.gather(srcs, dsts, state)
        acc = np.full(graph.num_vertices, op.identity, dtype=np.float64)
        self._reduce_at(op.reduce, acc, dsts, vals)
        touched = self._touched_dsts(dsts)
        changed = op.apply(touched, acc[touched], state)
        next_ids = touched[changed]
        return Frontier.from_ids(next_ids, graph.num_vertices)

    # ------------------------------------------------------------------
    # vertexmap
    # ------------------------------------------------------------------
    def vertexmap(
        self,
        frontier: Frontier,
        fn: Callable[[np.ndarray, dict], np.ndarray | None],
        state: dict,
    ) -> Frontier:
        """Apply ``fn(active_ids, state)``; its boolean return (or None)
        filters the frontier."""
        self._record_vertexmap(frontier)
        ids = frontier.ids
        keep = fn(ids, state)
        if keep is None:
            return frontier
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != ids.shape:
            raise SimulationError("vertexmap filter must match the active set")
        return Frontier.from_ids(ids[keep], self.graph.num_vertices)


register_backend("reference", ReferenceEngine)
