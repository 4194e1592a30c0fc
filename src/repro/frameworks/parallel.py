"""The ``parallel`` engine backend: threaded chunk workers over dense steps.

:class:`ParallelEngine` is the second engine backend.  It subclasses the
``vectorized`` engine and changes exactly one thing: **fully dense**
edgemap/vertexmap steps execute concurrently across a pool of chunk
workers instead of as one monolithic numpy call.  It overrides two
narrow hooks of that engine, the dense step's gather-and-reduce
(``_reduce_full``) and the vertexmap's call of the vertex function
(``_map_vertices``); the records, the ``apply`` and the next frontier stay
the vectorized engine's.  Sparse and medium
frontiers — small, latency-bound, dominated by Python dispatch rather
than array arithmetic — keep the vectorized backend's sequential fast
paths unchanged.

Chunk ownership
---------------
Work is split along the engine's own Algorithm-1 accounting partitions
(``boundaries``, the 384-chunk layout every framework personality prices
at).  Contiguous runs of partitions are grouped into at most ``workers``
*bands*, balanced by edge count, and each band owns a **disjoint
destination vertex range** ``[lo, hi)``:

* **pull** — the CSC stream is destination-major, so band ``i``'s edges
  are the contiguous slice ``csc.adj[offsets[lo]:offsets[hi]]``;
* **push** — the cached destination-stable ``push_perm`` groups the CSR
  stream by destination, so the same offset slice of the permutation
  selects band ``i``'s edges while preserving CSR order *within* each
  destination;
* **vertexmap** — band ``i`` applies the vertex function to ids
  ``[lo, hi)``.

Why the results are bit-identical
---------------------------------
Every reduction accumulates **per destination**, and each destination
lives in exactly one band, so splitting the stream at destination
boundaries cannot change which values meet in an accumulator — only
*where* the accumulation happens.  Within a band the kernel is the
vectorized backend's own: a band calls its ``_reduce`` on the band's
destination-grouped stream, ids shifted by the band's first vertex, so a
push band's within-destination order is the CSR order a sequential push
scatters in.  Each worker writes its results into a disjoint slice of one
preallocated output, and the user-visible ``apply`` runs once, on the
orchestrating thread, over the same ``(touched, reduced)`` pair every
other backend produces.  The output is therefore a pure function of the
inputs — independent of worker count, scheduling order, and
interleaving — which the determinism suite
(``tests/frameworks/test_parallel_determinism.py``) hammers with hostile
floats at worker counts 1/2/4/8 and the differential conformance suite
holds to the oracle engine (``tests/oracles.py``) across the full
algorithm matrix.

The one semantic requirement this adds: an :class:`EdgeOp`'s ``gather``
(and a vertexmap function) must be *elementwise-pure* — the value it
produces for edge/vertex ``k`` may depend only on ``k``'s endpoints and
the read-only state, never on which other elements share the call.
Every shipped algorithm and every conformance-suite op satisfies this by
construction (they are all numpy-indexing expressions).

Like the vectorized backend it derives from, this backend treats the
graph's arrays as borrowed read-only buffers (they may be memory-mapped
cache hits under ``REPRO_MMAP=1``); band plans and per-band outputs are
freshly allocated.

Threads, not processes
----------------------
Chunk workers are a shared :class:`~concurrent.futures.ThreadPoolExecutor`:
workers read the graph, the layout and the state arrays **zero-copy**,
and the per-band numpy kernels do their heavy lifting in C.  The
shared-memory multiprocess alternative was rejected after prototyping
the cost structure: every dense step would have to ship gather results
or state deltas across a process boundary (the state is mutated by
``apply`` between steps, so workers cannot hold a stale copy), and at
this repository's scales that serialization costs more than the step
itself — whereas threads pay only the pool dispatch.  The measured
comparison lives in ``benchmarks/test_parallel_speedup.py``.

Knobs (read once, at engine construction):

* ``REPRO_PARALLEL_WORKERS`` — chunk worker count; defaults to the
  process's usable CPU count.  Constructor kwarg ``workers=`` overrides.
* ``REPRO_PARALLEL_MIN_WORK`` — minimum dense-step size (edges for
  edgemap, vertices for vertexmap) worth fanning out; smaller steps take
  the inherited sequential path.  Constructor kwarg ``min_work=``
  overrides; the determinism tests pin it to 0 to force the parallel
  path on tiny graphs.

Every parallel step appends its per-chunk wall-clock measurements to the
trace's ``meta`` side channel (``trace.meta["parallel_chunks"]``): one
entry per step with the band vertex ranges, edge counts, seconds, the
*effective* band count (``workers`` — the plan can collapse below the
knob on hub-heavy graphs) and the configured knob
(``workers_configured``).  That is deliberately *measurement*, not
accounting — it never enters record fingerprints, trace equality, or the
persisted trace bundle.  :func:`repro.experiments.runner.execute` drains
the channel into the persistent measurement store
(:mod:`repro.store.measurements`) at record time, which is where
``machines calibrate`` fits cost-model coefficients from
(:mod:`repro.machine.calibrate`).
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.frameworks.engine import EdgeOp
from repro.frameworks.trace import WorkTrace
from repro.frameworks.vectorized import VectorizedEngine, _reduce
from repro.graph.csr import INDEX_DTYPE, Graph

__all__ = [
    "MIN_WORK_ENV_VAR",
    "WORKERS_ENV_VAR",
    "ParallelEngine",
    "default_workers",
    "resolve_min_work",
    "resolve_workers",
    "shutdown_pools",
]

#: Environment variable holding the process-wide chunk-worker count.
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"

#: Environment variable holding the minimum dense-step size worth fanning
#: out (edges for edgemap, active vertices for vertexmap).
MIN_WORK_ENV_VAR = "REPRO_PARALLEL_MIN_WORK"

#: Default for :data:`MIN_WORK_ENV_VAR`: below this, thread dispatch costs
#: more than it buys and the sequential vectorized path runs instead.
DEFAULT_MIN_WORK = 4096


def default_workers() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _env_int(var: str, fallback: int) -> int:
    raw = os.environ.get(var)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SimulationError(f"{var} must be an integer, got {raw!r}") from None


def resolve_workers(workers: int | None = None) -> int:
    """Chunk worker count: explicit argument > ``REPRO_PARALLEL_WORKERS``
    > the usable CPU count."""
    if workers is None:
        workers = _env_int(WORKERS_ENV_VAR, default_workers())
    workers = int(workers)
    if workers < 1:
        raise SimulationError(f"parallel worker count must be >= 1, got {workers}")
    return workers


def resolve_min_work(min_work: int | None = None) -> int:
    """Minimum dense-step size worth fanning out: explicit argument >
    ``REPRO_PARALLEL_MIN_WORK`` > :data:`DEFAULT_MIN_WORK`."""
    if min_work is None:
        min_work = _env_int(MIN_WORK_ENV_VAR, DEFAULT_MIN_WORK)
    return max(0, int(min_work))


# ----------------------------------------------------------------------
# Shared thread pools: one per worker count, created lazily, reused for
# the process lifetime.  Per-engine pools would pay thread start-up on
# every algorithm run; per-count pools keep dispatch at queue-put cost
# and sidestep any grow/shrink races between concurrently live engines.
# A forked child (a sweep worker) starts with none.
# ----------------------------------------------------------------------

_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _get_pool(workers: int) -> ThreadPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        with _POOLS_LOCK:
            pool = _POOLS.get(workers)
            if pool is None:
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix=f"repro-par{workers}"
                )
                _POOLS[workers] = pool
    return pool


def shutdown_pools(wait: bool = True) -> None:
    """Shut down every shared chunk-worker pool and forget it.

    Pools are otherwise created per distinct worker count and kept for
    the process lifetime — idle threads a long-running host (a pricing
    service, a test harness cycling worker counts) should be able to
    reclaim.  Safe to call at any time: engines re-create pools lazily on
    the next dense step, and an in-flight step keeps its own pool
    reference (``shutdown`` lets queued work finish when ``wait`` is
    true).  Also registered via :mod:`atexit` so interpreter shutdown
    never waits on leaked idle threads.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=wait)


atexit.register(shutdown_pools)


def _forget_pools_in_child() -> None:
    """A forked child inherits the pool objects but none of their threads
    (and maybe a held lock), so a dense step would queue work no thread
    ever runs.  Start the child with no pools; it creates its own."""
    global _POOLS_LOCK
    _POOLS.clear()
    _POOLS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_forget_pools_in_child)


class ParallelEngine(VectorizedEngine):
    """Drop-in engine backend executing dense steps across chunk workers.

    Same constructor contract as the other backends (``workers`` and
    ``min_work`` are optional extras resolved from the environment when
    omitted, so the registry's uniform construction path picks up the
    ``REPRO_PARALLEL_WORKERS`` knob); same ``edgemap``/``vertexmap``
    semantics, bit-identical results at every worker count — see the
    module docstring for the ownership argument.
    """

    def __init__(
        self,
        graph: Graph,
        boundaries: np.ndarray,
        trace: WorkTrace,
        workers: int | None = None,
        min_work: int | None = None,
    ) -> None:
        super().__init__(graph, boundaries, trace)
        self._workers = resolve_workers(workers)
        self._min_work = resolve_min_work(min_work)

    # ------------------------------------------------------------------
    # Band planning: contiguous runs of accounting partitions, edge-
    # balanced, at most `workers` of them.
    # ------------------------------------------------------------------
    def _band_plan(self, workers: int) -> np.ndarray:
        """Vertex split points (``int64[B + 1]``, ``B <= workers``) whose
        consecutive pairs are the chunk bands.  Every split point is an
        Algorithm-1 partition boundary, so accounting chunks are never
        torn across workers.  Cached per layout (the plan is a pure
        function of (graph, boundaries, workers))."""
        shared = self._shared
        plan = shared.band_plans.get(workers)
        if plan is None:
            with shared.lock:
                plan = shared.band_plans.get(workers)
                if plan is None:
                    bounds = self.boundaries
                    # Edges before each partition boundary (destination-
                    # major count — valid for pull slices and for the
                    # destination-grouped push permutation alike).
                    cum = self.graph.csc.offsets[bounds]
                    total = int(cum[-1])
                    targets = (np.arange(1, workers, dtype=np.int64) * total) // workers
                    splits = bounds[np.searchsorted(cum, targets, side="left")]
                    plan = np.unique(
                        np.concatenate((bounds[:1], splits, bounds[-1:]))
                    ).astype(INDEX_DTYPE)
                    shared.band_plans[workers] = plan
        return plan

    def _note_chunk_timings(
        self, kind: str, direction: str, bands: list[tuple[int, int, int, float]]
    ) -> None:
        """Append one step's per-chunk wall-clock to the trace meta
        channel — measurement for machine-model calibration, never part
        of trace identity.

        ``workers`` is the **effective** concurrency — the number of
        bands the step actually ran as, which ``_band_plan``'s
        ``np.unique`` can collapse below the configured knob when several
        edge-balanced split targets land on the same partition boundary
        (hub-heavy graphs).  The configured knob rides along separately
        as ``workers_configured``; calibration must never mistake one
        for the other.
        """
        self.trace.meta.setdefault("parallel_chunks", []).append(
            {
                "step": len(self.trace.steps) - 1,
                "kind": kind,
                "direction": direction,
                "workers": len(bands),
                "workers_configured": self._workers,
                "bands": [
                    {
                        "vertices": [int(lo), int(hi)],
                        "edges": int(edges),
                        "seconds": float(seconds),
                    }
                    for lo, hi, edges, seconds in bands
                ],
            }
        )
        if obs.enabled() and bands:
            # Runs on the orchestrating thread, so execute()'s thread-local
            # context (algorithm/graph/ordering) attributes the event.
            secs = [s for _, _, _, s in bands]
            edges = [e for _, _, e, _ in bands]
            mean_s = sum(secs) / len(secs)
            mean_e = sum(edges) / len(edges)
            obs.event(
                "engine.step_bands",
                cat="engine",
                step=len(self.trace.steps) - 1,
                kind=kind,
                direction=direction,
                bands=len(bands),
                max_seconds=max(secs),
                mean_seconds=mean_s,
                max_edges=max(edges),
                mean_edges=mean_e,
                total_edges=sum(edges),
            )
            reg = obs.metrics()
            if mean_s > 0:
                reg.histogram("engine.band_time_imbalance").observe(max(secs) / mean_s)
            if mean_e > 0:
                reg.histogram("engine.band_edge_imbalance").observe(max(edges) / mean_e)

    def _bands(self, work: int) -> np.ndarray | None:
        """The band plan for a dense step of ``work`` edges (edgemap) or
        vertices (vertexmap), or None when the step runs sequentially:
        one worker, less work than ``min_work``, or a plan of a single
        band (fan-out would only add dispatch)."""
        if self._workers <= 1 or work < max(1, self._min_work):
            return None
        pts = self._band_plan(self._workers)
        return pts if pts.size > 2 else None

    def _fan_out(self, kind: str, direction: str, pts: np.ndarray, run_band) -> None:
        """Run ``run_band(i, lo, hi)`` for every band ``[lo, hi)`` of
        ``pts`` on the shared pool, then note each band's edge count (what
        ``run_band`` returns) and wall clock on the trace."""

        def timed(i: int) -> tuple[int, int, int, float]:
            t0 = time.perf_counter()
            lo, hi = int(pts[i]), int(pts[i + 1])
            edges = run_band(i, lo, hi)
            return lo, hi, edges, time.perf_counter() - t0

        pool = _get_pool(self._workers)
        futures = [pool.submit(timed, i) for i in range(pts.size - 1)]
        self._note_chunk_timings(kind, direction, [f.result() for f in futures])

    def _reduce_full(
        self, op: EdgeOp, state: dict, direction: str, srcs: np.ndarray, dsts: np.ndarray
    ) -> np.ndarray:
        graph = self.graph
        pts = self._bands(graph.num_edges)
        if pts is None:
            return super()._reduce_full(op, state, direction, srcs, dsts)
        # Materialize every lazy layout member on the orchestrating thread
        # before fan-out; workers then only read immutable arrays.
        shared = self._shared
        perm = None if direction == "pull" else shared.push_perm
        touched = shared.full_touched
        full_starts = shared.full_starts
        offsets = graph.csc.offsets
        t_idx = np.searchsorted(touched, pts)
        reduced = np.empty(touched.size, dtype=np.float64)

        def run_band(i: int, lo: int, hi: int) -> int:
            s, e = int(offsets[lo]), int(offsets[hi])
            ts, te = int(t_idx[i]), int(t_idx[i + 1])
            if e > s:
                # The band's edges: a slice of the destination-major pull
                # stream, or the push_perm slice grouping the CSR stream.
                idx = slice(s, e) if perm is None else perm[s:e]
                band_dsts = dsts[idx]
                vals = np.asarray(op.gather(srcs[idx], band_dsts, state), dtype=np.float64)
                reduced[ts:te] = _reduce(
                    op, band_dsts - lo, vals, touched[ts:te] - lo,
                    full_starts[ts:te] - s, hi - lo,
                )
            return e - s

        self._fan_out("edgemap", direction, pts, run_band)
        return reduced

    def _map_vertices(self, fn, ids: np.ndarray, state: dict):
        n = self.graph.num_vertices
        pts = self._bands(n) if ids.size == n else None
        if pts is None:
            return super()._map_vertices(fn, ids, state)
        keeps: list = [None] * (pts.size - 1)

        def run_band(i: int, lo: int, hi: int) -> int:
            keeps[i] = fn(ids[lo:hi], state)  # dense: ids[k] == k
            return 0

        self._fan_out("vertexmap", "-", pts, run_band)
        if all(k is None for k in keeps):
            return None
        if any(k is None for k in keeps):
            raise SimulationError(
                "vertexmap filter must be consistent across chunks "
                "(every chunk returns a mask, or every chunk returns None)"
            )
        return np.concatenate([np.asarray(k, dtype=bool) for k in keeps])
