"""The frontier engine: edgemap / vertexmap with direction optimization.

This is the shared execution core of the three framework personalities.
It mirrors the Ligra programming model:

* ``edgemap`` applies a gather/reduce/apply triple to every edge whose
  source is active, producing the next frontier from the destinations that
  changed.  It picks *push* (iterate the out-edges of the sparse frontier,
  CSR) or *pull* (sweep all destinations' in-edges, CSC) by Beamer's
  direction-reversal heuristic — active out-edges above ``|E| / 20`` means
  pull — unless the algorithm pins a direction.
* ``vertexmap`` applies a vertex function to the active set.

Execution is *semantic*: updates use vectorized numpy kernels and produce
bit-exact algorithm results.  Performance is *traced, then priced*: every
call appends an :class:`~repro.frameworks.trace.IterationRecord` with
per-partition work counters, and the framework personalities convert the
trace into seconds with the machine model.  (Running 48 real Python threads
would measure the GIL, not the paper's load-balance effect.)

The reduction algebra covers the paper's eight algorithms:

=========  ===========================  =====================
reduce     numpy kernel                 used by
=========  ===========================  =====================
``add``    ``np.add.at``                PR, PRD, SPMV, BP
``min``    ``np.minimum.at``            BFS, BF, CC
``or``     ``np.maximum.at`` (uint8)    BFS (pull visited)
=========  ===========================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.frameworks.frontier import Frontier
from repro.frameworks.trace import IterationRecord, WorkTrace
from repro.graph.csr import INDEX_DTYPE, Graph

__all__ = ["EdgeOp", "Engine", "gather_rows"]


#: Direction-reversal threshold: pull when active out-edges exceed |E| / 20.
DIRECTION_THRESHOLD_DENOM = 20

#: Sample cap for per-record stream locality measurement.
_MISS_SAMPLE = 100_000


def _stream_miss(srcs: np.ndarray, dsts: np.ndarray, num_vertices: int) -> tuple[float, float]:
    """Sampled miss fractions of one step's (source, destination) streams."""
    from repro.machine.locality import line_hit_fraction, reuse_window

    if srcs.size == 0:
        return 0.0, 0.0
    if srcs.size > _MISS_SAMPLE:
        start = (srcs.size - _MISS_SAMPLE) // 2
        srcs = srcs[start : start + _MISS_SAMPLE]
        dsts = dsts[start : start + _MISS_SAMPLE]
    window = reuse_window(num_vertices)
    return (
        1.0 - line_hit_fraction(srcs, window=window),
        1.0 - line_hit_fraction(dsts, window=window),
    )


def gather_rows(offsets: np.ndarray, adj: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


@dataclass(frozen=True)
class EdgeOp:
    """A gather/reduce/apply triple — the algorithm-specific payload.

    Attributes
    ----------
    gather:
        ``gather(src_ids, dst_ids, state) -> float64 per-edge values``.
        ``src_ids``/``dst_ids`` are the endpoints of each *active* edge.
    reduce:
        ``"add"``, ``"min"`` or ``"or"``.
    apply:
        ``apply(touched_dsts, reduced_values, state) -> changed mask over
        touched_dsts``.  Must mutate ``state`` in place; the returned mask
        selects the destinations entering the next frontier.
    identity:
        Identity element of the reduction (0 for add, +inf for min...).
    """

    gather: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    reduce: str
    apply: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    identity: float

    def __post_init__(self) -> None:
        if self.reduce not in ("add", "min", "or"):
            raise SimulationError(f"unsupported reduction {self.reduce!r}")


class Engine:
    """Frontier engine bound to one graph and one partition layout.

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
        from repro.partition.stats import compute_stats

        full = compute_stats(graph, self.boundaries)
        self._full_edges = np.maximum(full.edges, 1).astype(np.float64)
        self._full_srcs = full.unique_sources.astype(np.float64)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------
    def _stream_miss_pair(self, srcs: np.ndarray, dsts: np.ndarray) -> tuple[float, float]:
        return _stream_miss(srcs, dsts, self.graph.num_vertices)

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
            flat, dsts_all = gather_rows(csc.offsets, csc.adj, dst_candidates)
            srcs_all = csc.adj[flat]
            active = frontier.mask[srcs_all]
            srcs = srcs_all[active]
            dsts = dsts_all[active]
        return self._finish(frontier, op, state, srcs, dsts, "pull")

    def _edgemap_push(self, frontier: Frontier, op: EdgeOp, state: dict) -> Frontier:
        graph = self.graph
        flat, srcs = gather_rows(graph.csr.offsets, graph.csr.adj, frontier.ids)
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
