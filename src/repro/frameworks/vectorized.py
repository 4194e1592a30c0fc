"""The frontier engine: segment reductions over COO/CSC streams.

:class:`VectorizedEngine` executes every edgemap/vertexmap step of every
algorithm run (the ``vectorized`` backend, the default), and the
``parallel`` backend (:mod:`repro.frameworks.parallel`) subclasses it.  It
is built for throughput, yet every result (state mutations, frontier
sequences, trace records) must stay bit-identical to a deliberately
simple oracle engine kept in the test tree (``tests/oracles.py``: mask
compression, ``np.ufunc.at`` scatters, every step accounted from
scratch).  The differential conformance suite pins that equality down;
this module's job is to make the fast path fast without ever being
allowed to differ.

Where the time goes, and what this engine does about it:

* **One reduction kernel.**  The oracle scatters with ``np.ufunc.at``.
  Here every step reduces through :func:`_reduce`, the only code that
  picks a kernel: ``add`` runs through ``np.bincount(dsts, weights=vals)``
  — a sequential C loop that performs the *identical* float64 additions in
  the *identical* order as ``np.add.at`` (bit-equal by construction, which
  ``np.add.reduceat`` is **not**: it sums segments pairwise and drifts in
  the last ulp) — and ``min``/``or`` over a stream grouped by destination
  run through ``np.minimum.reduceat`` / ``np.maximum.reduceat`` over its
  segments, which is exact for order-insensitive reductions once a zero
  result takes the bits of its segment's last zero (the one tie whose
  bits differ, ``+0.0`` against ``-0.0``).  Everything else scatters with
  ``ufunc.at``, like the oracle.
* **Dense streams.**  A fully dense frontier touches every edge, so the
  active-edge streams are the graph's own CSC (pull) or CSR (push)
  streams.  The engine skips the boolean-mask compression entirely and
  reduces straight over the precomputed flat streams: pull segments are
  delimited by the CSC offsets; push values are summed in CSR order, and
  for ``min``/``or`` permuted once by a cached destination-stable
  ``argsort`` of ``csr.adj`` and then reduced at the same CSC segment
  starts.
* **One record memo.**  A step's trace record (per-partition
  edge/destination/source counters and the sampled stream-miss fractions)
  is a pure function of the layout and of what fixes the step's streams:
  its direction, its active set and, for a pull over candidates, the
  candidate ids in order.  Each layout memoizes finished records on
  exactly that key, so every dense step after the first, and every
  repeated partial step, appends the stored record and skips its
  accounting, including the line-id sort behind
  :func:`~repro.machine.locality.line_hit_fraction` (the dominant cost of
  dense iterative algorithms — PR, BP, SPMV — when every step is
  accounted from scratch).  On a miss, one of the step's two sampled
  streams is always sorted (push sources, pull destinations), and
  :func:`~repro.machine.locality.line_hit_fraction` counts a sorted
  stream's hits in one pass.  A FIFO byte budget over the keys and
  records bounds the memo.
* **Dense-class push extraction.**  A partial push frontier in Table
  II's dense class (PRD's frontier thins slowly, so most of its push
  steps carry most of the edges) takes its destinations by compressing
  the CSR adjacency with the sources' flags repeated by out-degree, and
  its sources by repeating the ascending frontier ids: the row gather's
  edges, in the row gather's order, at full-stream speed.  Medium and
  sparse push frontiers gather rows
  (:func:`~repro.frameworks.engine.gather_rows`).
* **Step accounting from counts.**  A partial step's per-partition edge
  and destination counters come from counts, never from a per-edge
  partition lookup: a sorted destination stream gives both by binary
  searches at the partition boundaries; a denser unsorted one by one
  per-vertex ``bincount``, whose nonzeros are the touched destinations
  the reduction reuses and whose prefix sums at the boundaries are the
  edge counts; only a sparse stream (under n/16 edges) is sorted.
* **Layout memoization.**  Everything derived from ``(graph,
  boundaries)`` — partition maps, flat COO streams, the
  :func:`~repro.partition.stats.compute_stats` totals, segment starts,
  the record memo — is shared across engine constructions via a cache
  keyed weakly on the graph, so a sweep pricing eight algorithms over one
  prepared graph pays the setup once instead of eight times.  A layout
  holds the graph's CSR and CSC views, never the graph itself, so it dies
  with its graph, transposes included.

Partial frontiers extract their active edges by mask compression (pull,
and dense-class push) or row gathers (medium and sparse push, pull over
candidates) — the oracle's edges in the oracle's order.  A sorted
destination stream (pull) hands :func:`_reduce` its segment heads; an
unordered one (push, pull over unsorted candidates) hands none, so its
``min``/``or`` scatter — sorting small irregular streams costs more than
the scatter saves — and one touching under n/16 destinations reduces into
a touched-indexed accumulator instead of an n-long one.

The ``bincount`` and segment kernels assume the identities ``+0.0``
(``add``), ``+inf`` (``min``) and ``-inf`` (``or``); an
:class:`~repro.frameworks.engine.EdgeOp` carrying any other identity
takes the ``np.ufunc.at`` kernel on the same streams, keeping
conformance unconditional.
"""

from __future__ import annotations

import threading
from functools import cached_property
from typing import Callable
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import SimulationError
from repro.frameworks.engine import (
    DIRECTION_THRESHOLD_DENOM,
    _MISS_SAMPLE,
    EdgeOp,
    gather_rows,
)
from repro.frameworks.frontier import DensityClass, Frontier
from repro.frameworks.trace import IterationRecord, WorkTrace
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.machine.locality import line_hit_fraction, reuse_window

__all__ = ["VectorizedEngine"]


def _is_positive_zero(x: float) -> bool:
    return x == 0.0 and not np.signbit(x)


def _segment_reduce(ufunc, vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """``ufunc.reduceat`` (``np.minimum``/``np.maximum``, non-empty
    segments) with the oracle's tie rule: ``ufunc.at`` keeps the later of
    two equal values, but numpy's vectorized reduce breaks a ``+0.0`` /
    ``-0.0`` tie in lane order on segments of nine or more values.  Zero
    is the only tie whose bits differ, so a zero result takes the bits of
    its segment's last zero."""
    reduced = ufunc.reduceat(vals, starts)
    zero_segments = np.flatnonzero(reduced == 0)
    if zero_segments.size:
        zeros = np.flatnonzero(vals == 0)
        ends = np.append(starts[1:], vals.size)[zero_segments]
        reduced[zero_segments] = vals[zeros[np.searchsorted(zeros, ends) - 1]]
    return reduced


def _segment_ufunc(op: EdgeOp):
    """The ufunc :func:`_segment_reduce` reduces ``op`` with, or None:
    ``np.minimum`` for ``min`` from ``+inf`` and ``np.maximum`` for ``or``
    from ``-inf``, the identities the kernel assumes."""
    if op.reduce == "min" and op.identity == np.inf:
        return np.minimum
    if op.reduce == "or" and op.identity == -np.inf:
        return np.maximum
    return None


def _reduce(
    op: EdgeOp,
    dsts: np.ndarray,
    vals: np.ndarray,
    touched: np.ndarray,
    starts: np.ndarray | None,
    size: int,
) -> np.ndarray:
    """``vals`` reduced per destination by ``op``: one float64 value per
    ``touched`` id; the only code that picks a reduction kernel.

    ``dsts`` are ids in ``[0, size)`` and ``touched`` their sorted unique
    set; ``starts`` are the segment heads of a stream grouped by
    destination, or None.  ``vals`` is float64 (each caller casts its
    gather once), so a float32 gather still reduces in float64, where
    ``reduceat`` would keep its dtype.
    """
    segment = None if starts is None else _segment_ufunc(op)
    if segment is not None:
        return _segment_reduce(segment, vals, starts)
    if op.reduce == "add" and _is_positive_zero(op.identity):
        acc = np.bincount(dsts, weights=vals, minlength=size)
    else:
        acc = np.full(size, op.identity, dtype=np.float64)
        ufunc = {"add": np.add, "min": np.minimum, "or": np.maximum}[op.reduce]
        ufunc.at(acc, dsts, vals)
    # Every slot touched (a compact remap, or every vertex): the
    # accumulator already is the answer.
    return acc if touched.size == size else acc[touched]


def _entry_bytes(key: tuple, record: IterationRecord) -> int:
    """Bytes one record-memo entry holds: its key's byte strings and its
    record's per-partition arrays."""
    held = (record.part_edges, record.part_dsts, record.part_srcs, record.part_vertices)
    return sum(len(part) for part in key[1:] if part is not None) + sum(a.nbytes for a in held)


class _SharedLayout:
    """Per-(graph, boundaries) immutable state shared across engines.

    Eager members are what every step's accounting needs; the rest are
    lazy because only some algorithms need them (``csr_src`` only for
    dense push, ``push_perm`` only for dense push with an
    order-insensitive reduction, ...).

    A layout holds the graph's CSR and CSC views, never the graph: the
    cache keys layouts weakly on the graph, and a layout holding its key
    would keep it, its derived arrays and its record memo alive for the
    process lifetime.

    The borrowed graph arrays may be read-only — including memory-mapped
    straight off the artifact cache — so every layout member here is a
    *freshly allocated* derived array; nothing writes into the
    ``csr``/``csc`` buffers.
    """

    def __init__(self, graph: Graph, boundaries: np.ndarray) -> None:
        from repro.partition.stats import compute_stats

        self.csr = graph.csr
        self.csc = graph.csc
        n = graph.num_vertices
        self.vertex_part = np.searchsorted(
            boundaries[1:], np.arange(n, dtype=INDEX_DTYPE), side="right"
        ).astype(INDEX_DTYPE)
        self.csc_dst = np.repeat(np.arange(n, dtype=INDEX_DTYPE), self.csc.degrees())
        full = compute_stats(graph, boundaries)
        self.full_edges = np.maximum(full.edges, 1).astype(np.float64)
        self.full_srcs = full.unique_sources.astype(np.float64)
        #: Finished step records, oldest first: (direction, packed active
        #: mask, candidate id bytes or None) -> IterationRecord (see
        #: VectorizedEngine._append_record); ``record_bytes`` is what
        #: the entries hold.
        self.records: dict[tuple, IterationRecord] = {}
        self.record_bytes = 0
        #: workers -> vertex split points; the parallel backend's cached
        #: chunk-band plans (repro.frameworks.parallel).
        self.band_plans: dict[int, np.ndarray] = {}
        #: Guards the lazy per-layout structures that several threads may
        #: fill at once: the band plans and the record memo's inserts.
        self.lock = threading.Lock()

    # -- dense-stream geometry -----------------------------------------
    @cached_property
    def out_degrees(self) -> np.ndarray:
        """Out-degree of each vertex (the CSR row lengths)."""
        return self.csr.degrees()

    @cached_property
    def csr_src(self) -> np.ndarray:
        """Edge -> source vertex in CSR (source-major) order."""
        return np.repeat(
            np.arange(self.csr.num_vertices, dtype=INDEX_DTYPE), self.out_degrees
        )

    @cached_property
    def full_touched(self) -> np.ndarray:
        """Sorted unique destinations of the full edge stream — exactly
        the vertices with nonzero in-degree (identical for push and pull:
        both streams cover every edge)."""
        return np.flatnonzero(self.csc.degrees() > 0).astype(INDEX_DTYPE)

    @cached_property
    def full_starts(self) -> np.ndarray:
        """Start offset of each nonempty destination segment in any
        destination-grouped full edge stream (= CSC offsets of the
        touched vertices)."""
        return self.csc.offsets[self.full_touched]

    @cached_property
    def push_perm(self) -> np.ndarray:
        """Stable permutation grouping the CSR edge stream by destination.
        Stability preserves CSR order within each destination, so even
        order-*sensitive* reductions over the permuted stream accumulate
        in push order."""
        return np.argsort(self.csr.adj, kind="stable")


#: graph -> {boundaries bytes -> _SharedLayout}; weak, so each layout dies
#: with its graph.  Keyed by graph equality, not identity: on a symmetric
#: graph the ``graph.reverse()`` that CC's and BC's reverse engine runs on
#: equals the graph, so it finds the forward layout and shares its record
#: memo, and repeated steps share one trace row.  Identity keys would
#: double those rows (``orkut`` at scale 0.2, VEBO, P = 384: CC 4 -> 8,
#: BC 6 -> 11) and grow every stored CC and BC bundle; the cost of
#: equality is an array comparison against each live key of equal (n, m).
_LAYOUTS: "WeakKeyDictionary[Graph, dict[bytes, _SharedLayout]]" = WeakKeyDictionary()

#: Guards every read-modify-write of ``_LAYOUTS``.  Engines are built
#: concurrently — a thread pool constructing one engine per worker, or the
#: parallel backend's own machinery — and the unlocked check-then-insert
#: used to race: two threads could each miss, build a duplicate
#: _SharedLayout (torn sharing: their record memos then diverge for the
#: graph's lifetime) and clobber each other's insert.
#: Building *inside* the lock is deliberate: the lock guarantees exactly
#: one build per (graph, boundaries), which the thread-hammer regression
#: test pins down by spying on the construction count.
_LAYOUTS_LOCK = threading.Lock()


def _layout_for(graph: Graph, boundaries: np.ndarray) -> _SharedLayout:
    key = boundaries.tobytes()
    with _LAYOUTS_LOCK:
        per_graph = _LAYOUTS.get(graph)
        if per_graph is None:
            per_graph = {}
            _LAYOUTS[graph] = per_graph
        layout = per_graph.get(key)
        if layout is None:
            layout = _SharedLayout(graph, boundaries)
            per_graph[key] = layout
    return layout


class VectorizedEngine:
    """Frontier engine bound to one graph and one partition layout.

    ``boundaries`` (``int64[P + 1]``) defines the destination chunks used
    for work accounting; they do not affect results, only the trace.  See
    the module docstring for how each step runs and why it cannot change
    results.
    """

    def __init__(self, graph: Graph, boundaries: np.ndarray, trace: WorkTrace) -> None:
        self.graph = graph
        self.boundaries = np.ascontiguousarray(boundaries, dtype=INDEX_DTYPE)
        self.trace = trace
        self.num_partitions = self.boundaries.size - 1
        # Every layout-derived array comes from the shared cache instead
        # of being recomputed per algorithm run.
        shared = _layout_for(graph, self.boundaries)
        self._shared = shared
        #: Partition of each vertex (destination side).
        self._vertex_part = shared.vertex_part
        #: CSC edge -> destination vertex.
        self._csc_dst = shared.csc_dst
        #: The last ``(dsts, touched, part_edges)`` of :meth:`_dst_counts`,
        #: so a step's accounting and its reduction share one count.
        #: Handing the pair from one to the other explicitly instead
        #: measured worse: PRD's minor page faults over the 16 Table III
        #: (graph, ordering) pairs rose about eightfold, and keeping the
        #: previous step's arrays alive brought them back.  The likely
        #: cause is the allocator trimming the heap between steps once
        #: nothing holds them.
        self._touched_cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # edgemap / vertexmap
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
        keep = self._map_vertices(fn, ids, state)
        if keep is None:
            return frontier
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != ids.shape:
            raise SimulationError("vertexmap filter must match the active set")
        return Frontier.from_ids(ids[keep], self.graph.num_vertices)

    def _map_vertices(self, fn, ids: np.ndarray, state: dict):
        """``fn`` over the active ids.  The ``parallel`` backend overrides
        this to run a dense vertexmap's bands concurrently."""
        return fn(ids, state)

    # ------------------------------------------------------------------
    # Work accounting
    # ------------------------------------------------------------------

    #: Upper bound on a layout's record memo: the bytes of its keys and
    #: of its records' per-partition arrays.
    _RECORD_MEMO_BUDGET = 16 * 1024 * 1024

    def _append_record(
        self, direction: str, frontier: Frontier, candidates: np.ndarray | None,
        build: Callable[[], IterationRecord],
    ) -> None:
        """Append the record of a step, memoized per layout.

        A step's streams, and so its record, are fixed by its direction
        (``"-"`` for a vertexmap), its active set and its pull candidates
        in order, so that triple is the key: the active set as packed mask
        bytes, the candidates as int64 bytes.  ``build`` runs on a miss
        only; a hit appends the stored, immutable record itself.  Inserts
        are FIFO within :attr:`_RECORD_MEMO_BUDGET`.
        """
        key = (
            direction,
            np.packbits(frontier.mask).tobytes(),
            None if candidates is None else candidates.astype(INDEX_DTYPE, copy=False).tobytes(),
        )
        shared = self._shared
        record = shared.records.get(key)
        if record is None:
            record = build()
            with shared.lock:
                if key not in shared.records:
                    shared.records[key] = record
                    shared.record_bytes += _entry_bytes(key, record)
                    while shared.record_bytes > self._RECORD_MEMO_BUDGET:
                        oldest = next(iter(shared.records))
                        shared.record_bytes -= _entry_bytes(oldest, shared.records.pop(oldest))
        self.trace.append(record)

    def _edgemap_record(
        self, direction: str, frontier: Frontier, srcs: np.ndarray, dsts: np.ndarray,
        density: DensityClass | None = None,
    ) -> IterationRecord:
        """The work record of one edgemap step over its active streams;
        ``density`` is the frontier's class when the caller has it."""
        p = self.num_partitions
        if dsts.size:
            touched, part_edges = self._dst_counts(dsts)
            part_dsts = np.diff(np.searchsorted(touched, self.boundaries))
        else:
            part_edges = np.zeros(p, dtype=np.int64)
            part_dsts = np.zeros(p, dtype=np.int64)
        # Distinct sources per partition: an exact (partition, source)
        # dedup would cost an O(m log m) lexsort per step, so the static
        # per-partition totals are scaled by each partition's active-edge
        # fraction instead (exact for dense steps, proportional for
        # sparse ones).
        if srcs.size == 0:
            part_srcs = np.zeros(p, dtype=np.int64)
            src_miss = dst_miss = 0.0
        else:
            frac = np.minimum(part_edges / self._shared.full_edges, 1.0)
            part_srcs = np.ceil(self._shared.full_srcs * frac).astype(np.int64)
            # Per-step locality of the *actual* access streams, sampled to
            # their middle _MISS_SAMPLE elements.  A BFS wave in a
            # community-local ordering reads tightly clustered sources; a
            # random permutation scatters the same wave across the whole
            # array.  Layout-level measurements cannot see that, so each
            # record carries its own miss fractions.
            start = max(0, (srcs.size - _MISS_SAMPLE) // 2)
            sample = slice(start, start + _MISS_SAMPLE)
            window = reuse_window(self.graph.num_vertices)
            src_miss = 1.0 - line_hit_fraction(srcs[sample], window=window)
            dst_miss = 1.0 - line_hit_fraction(dsts[sample], window=window)
        return IterationRecord(
            kind="edgemap",
            direction=direction,
            density=frontier.classify(self.graph) if density is None else density,
            active_vertices=frontier.count(),
            active_edges=int(dsts.size),
            part_edges=part_edges,
            part_dsts=part_dsts,
            part_srcs=part_srcs,
            part_vertices=np.zeros(p, dtype=np.int64),
            src_miss=src_miss,
            dst_miss=dst_miss,
        )

    def _record_edgemap(
        self, direction: str, frontier: Frontier, srcs: np.ndarray, dsts: np.ndarray,
        density: DensityClass | None = None, candidates: np.ndarray | None = None,
    ) -> None:
        """Append the record of an edgemap step over the streams that
        ``direction``, ``frontier`` and ``candidates`` fix."""
        self._append_record(
            direction, frontier, candidates,
            lambda: self._edgemap_record(direction, frontier, srcs, dsts, density),
        )

    def _record_vertexmap(self, frontier: Frontier) -> None:
        """Append the record of a vertexmap step over ``frontier``."""
        self._append_record("-", frontier, None, lambda: self._vertexmap_record(frontier))

    def _vertexmap_record(self, frontier: Frontier) -> IterationRecord:
        """The work record of one vertexmap step."""
        p = self.num_partitions
        ids = frontier.ids
        part_vertices = np.bincount(
            self._vertex_part[ids], minlength=p
        ).astype(np.int64) if ids.size else np.zeros(p, dtype=np.int64)
        return IterationRecord(
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

    # ------------------------------------------------------------------
    # Edge extraction
    # ------------------------------------------------------------------
    def _edgemap_pull(
        self,
        frontier: Frontier,
        op: EdgeOp,
        state: dict,
        dst_candidates: np.ndarray | None,
    ) -> Frontier:
        graph = self.graph
        csc = graph.csc
        n = graph.num_vertices
        if dst_candidates is None:
            if frontier.count() == n:
                # Dense: the active stream IS the full CSC stream.
                return self._finish_full(frontier, op, state, "pull")
            active = frontier.mask[csc.adj]
            srcs = csc.adj[active]
            dsts = self._csc_dst[active]
            return self._finish_sorted(frontier, op, state, srcs, dsts, "pull")
        flat, dsts_all = gather_rows(csc.offsets, csc.adj, dst_candidates)
        srcs_all = csc.adj[flat]
        active = frontier.mask[srcs_all]
        srcs = srcs_all[active]
        dsts = dsts_all[active]
        if dst_candidates.size < 2 or bool(
            np.all(dst_candidates[1:] > dst_candidates[:-1])
        ):
            # Strictly increasing candidates keep the gathered destination
            # stream sorted, so segment reductions apply.
            return self._finish_sorted(
                frontier, op, state, srcs, dsts, "pull", dst_candidates
            )
        return self._finish_scatter(
            frontier, op, state, srcs, dsts, "pull", candidates=dst_candidates
        )

    def _edgemap_push(self, frontier: Frontier, op: EdgeOp, state: dict) -> Frontier:
        graph = self.graph
        if frontier.count() == graph.num_vertices:
            return self._finish_full(frontier, op, state, "push")
        density = frontier.classify(graph)
        if density is DensityClass.DENSE:
            # Most edges are active: compress the CSR adjacency by its
            # sources' flags.  Frontier ids ascend, so these are the row
            # gather's edges in the row gather's (CSR) order.
            ids = frontier.ids
            out_degrees = self._shared.out_degrees
            srcs = np.repeat(ids, out_degrees[ids])
            dsts = graph.csr.adj[np.repeat(frontier.mask, out_degrees)]
        else:
            flat, srcs = gather_rows(graph.csr.offsets, graph.csr.adj, frontier.ids)
            dsts = graph.csr.adj[flat]
        return self._finish_scatter(frontier, op, state, srcs, dsts, "push", density)

    # ------------------------------------------------------------------
    # Reduction + apply + next frontier
    # ------------------------------------------------------------------
    def _next_frontier(self, touched: np.ndarray, changed: np.ndarray) -> Frontier:
        """Frontier from an already sorted-unique id selection — what
        ``Frontier.from_ids`` would build, minus its ``np.unique``."""
        changed = np.asarray(changed)
        next_ids = touched[changed]
        if changed.dtype != np.bool_:
            # The apply contract says "boolean mask", but fancy indexing
            # accepts anything array-like; route such selections through
            # from_ids so semantics stay those of a plain index.
            return Frontier.from_ids(next_ids, self.graph.num_vertices)
        mask = np.zeros(self.graph.num_vertices, dtype=bool)
        mask[next_ids] = True
        return Frontier(mask=mask, _ids=next_ids, _count=int(next_ids.size))

    #: Sparse cutoff: when a step touches at most n/16 edges, sorting the
    #: small destination stream beats O(n) counts and accumulators.
    _SPARSE_FACTOR = 16

    def _dst_counts(self, dsts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(touched, part_edges)`` of a non-empty destination stream:
        its sorted unique destinations (int64) and its edges per
        partition, memoized per stream so the accounting and the
        reduction share one computation.  Sparse streams sort
        (O(e log e)).  Denser ones count per vertex with one ``bincount``
        (O(n + e), no sort): its nonzeros are the touched set and its
        prefix sums at the partition boundaries the edge counts.
        :meth:`_finish_sorted` primes the memo for sorted streams."""
        cache = self._touched_cache
        if cache is not None and cache[0] is dsts:
            return cache[1], cache[2]
        n = self.graph.num_vertices
        if dsts.size * self._SPARSE_FACTOR < n:
            touched = np.unique(dsts).astype(INDEX_DTYPE, copy=False)
            part_edges = np.bincount(
                self._vertex_part[dsts], minlength=self.num_partitions
            ).astype(np.int64, copy=False)
        else:
            counts = np.bincount(dsts, minlength=n)
            touched = np.flatnonzero(counts).astype(INDEX_DTYPE, copy=False)
            ends = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=ends[1:])
            part_edges = np.diff(ends[self.boundaries])
        self._touched_cache = (dsts, touched, part_edges)
        return touched, part_edges

    def _finish_full(
        self, frontier: Frontier, op: EdgeOp, state: dict, direction: str
    ) -> Frontier:
        graph = self.graph
        shared = self._shared
        if direction == "pull":
            srcs, dsts = graph.csc.adj, shared.csc_dst
        else:
            srcs, dsts = shared.csr_src, graph.csr.adj
        self._record_edgemap(direction, frontier, srcs, dsts)
        if dsts.size == 0:
            return Frontier.empty(graph.num_vertices)
        touched = shared.full_touched
        reduced = self._reduce_full(op, state, direction, srcs, dsts)
        changed = op.apply(touched, reduced, state)
        return self._next_frontier(touched, changed)

    def _reduce_full(
        self, op: EdgeOp, state: dict, direction: str, srcs: np.ndarray, dsts: np.ndarray
    ) -> np.ndarray:
        """Gather and reduce a fully dense step's full stream: one value
        per ``full_touched`` destination.  Only the segment kernel needs
        the stream grouped by destination; pull is, and push values go
        through ``push_perm`` for it alone (``bincount`` and ``ufunc.at``
        take the CSR stream as it is).  The ``parallel`` backend overrides
        this to reduce destination bands concurrently."""
        shared = self._shared
        vals = np.asarray(op.gather(srcs, dsts, state), dtype=np.float64)
        starts = None
        if _segment_ufunc(op) is not None:
            starts = shared.full_starts
            if direction == "push":
                vals = vals[shared.push_perm]
        return _reduce(op, dsts, vals, shared.full_touched, starts, self.graph.num_vertices)

    def _finish_sorted(
        self,
        frontier: Frontier,
        op: EdgeOp,
        state: dict,
        srcs: np.ndarray,
        dsts: np.ndarray,
        direction: str,
        candidates: np.ndarray | None = None,
    ) -> Frontier:
        """Finish a step whose ``dsts`` stream is non-decreasing (CSC
        compression preserves destination order), so touched destinations
        and segment boundaries come from one difference scan, and each
        partition's edges from one binary search per boundary.
        ``candidates`` are the pull candidates the streams came from, if
        any (part of the step's record key)."""
        graph = self.graph
        if dsts.size:
            boundary = np.empty(dsts.size, dtype=bool)
            boundary[0] = True
            np.not_equal(dsts[1:], dsts[:-1], out=boundary[1:])
            starts = np.flatnonzero(boundary)
            # Sorted stream: segment heads ARE the sorted unique
            # destinations; prime the memo so the work accounting reuses
            # them instead of re-deriving the same ids.
            touched = dsts[starts]
            part_edges = np.diff(np.searchsorted(dsts, self.boundaries))
            self._touched_cache = (dsts, touched, part_edges)
        self._record_edgemap(direction, frontier, srcs, dsts, candidates=candidates)
        if dsts.size == 0:
            return Frontier.empty(graph.num_vertices)
        vals = np.asarray(op.gather(srcs, dsts, state), dtype=np.float64)
        reduced = _reduce(op, dsts, vals, touched, starts, graph.num_vertices)
        changed = op.apply(touched, reduced, state)
        return self._next_frontier(touched, changed)

    def _finish_scatter(
        self,
        frontier: Frontier,
        op: EdgeOp,
        state: dict,
        srcs: np.ndarray,
        dsts: np.ndarray,
        direction: str,
        density: DensityClass | None = None,
        candidates: np.ndarray | None = None,
    ) -> Frontier:
        """Finish a step with an unordered destination stream (partial
        push, or pull over unsorted ``candidates``)."""
        n = self.graph.num_vertices
        self._record_edgemap(direction, frontier, srcs, dsts, density, candidates)
        if dsts.size == 0:
            return Frontier.empty(n)
        vals = np.asarray(op.gather(srcs, dsts, state), dtype=np.float64)
        touched = self._dst_counts(dsts)[0]
        ids, size = dsts, n
        if touched.size * self._SPARSE_FACTOR < n:
            # Accumulate into a touched-indexed array: the remap preserves
            # the stream order, so every per-destination accumulation
            # happens in stream order, just without O(n) allocations on a
            # step touching a handful of vertices.
            ids, size = np.searchsorted(touched, dsts), touched.size
        reduced = _reduce(op, ids, vals, touched, None, size)
        changed = op.apply(touched, reduced, state)
        return self._next_frontier(touched, changed)
