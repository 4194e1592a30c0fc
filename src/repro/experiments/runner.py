"""High-level experiment runner: one (graph, ordering, framework, algorithm)
configuration end to end.

The pipeline mirrors the paper's Figure 2: vertex reordering -> chunk
partitioning -> graph processing, then pricing under a framework
personality.  The runner also applies the per-framework configuration rules
of Sections IV and V-G:

* one partition count: every personality accounts work at
  ``ACCOUNTING_CHUNKS`` (384) destination chunks and maps them to threads
  by its own scheduler, so one trace prices under all of them;
* GraphGrind's dense COO edge order: Hilbert for Original/RCM/Gorder,
  CSR order for VEBO (the Section V-G finding);
* VEBO configurations partition at VEBO's own boundaries; all other
  orderings go through Algorithm 1's scan.

Results carry both the estimate and enough metadata to build every table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from weakref import WeakKeyDictionary

import numpy as np

from repro import obs
from repro.algorithms import ALGORITHMS
from repro.errors import ResultsError
from repro.frameworks.personality import (
    ACCOUNTING_CHUNKS,
    FrameworkModel,
    RuntimeEstimate,
    resolve_framework,
)
from repro.graph.coo import COOEdges
from repro.graph.csr import Graph
from repro.edgeorder.hilbert import hilbert_order_edges
from repro.machine.locality import measure_stream, reuse_window
from repro.machine.models import DEFAULT_MACHINE, MachineModel, resolve_machine
from repro.ordering import apply_ordering, get_ordering
from repro.partition.algorithm1 import chunk_boundaries

__all__ = [
    "ExperimentResult",
    "PreparedGraph",
    "TraceExecution",
    "execute",
    "prepare",
    "price",
    "run",
]


@dataclass(frozen=True)
class PreparedGraph:
    """A graph after reordering, with everything pricing needs."""

    graph: Graph
    ordering: str
    perm: np.ndarray              # original id -> new id
    orig_ids: np.ndarray          # new id -> original id
    boundaries: np.ndarray        # int64[P + 1]: the Figure 2 partition cuts
    ordering_seconds: float
    locality: dict[str, tuple[float, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentResult:
    """One cell of Table III (plus the trace behind it).

    ``machine`` names the machine personality the cell was priced on
    (:mod:`repro.machine.models`) — a pricing dimension exactly like
    ``framework``, never part of the execution's identity.
    """

    graph: str
    algorithm: str
    framework: str
    ordering: str
    seconds: float
    iterations: int
    ordering_seconds: float
    estimate: RuntimeEstimate
    machine: str = DEFAULT_MACHINE

    def to_dict(self) -> dict:
        """JSON-representable encoding (lossless; see
        :meth:`RuntimeEstimate.to_dict`)."""
        return {
            "graph": self.graph,
            "algorithm": self.algorithm,
            "framework": self.framework,
            "ordering": self.ordering,
            "machine": self.machine,
            "seconds": float(self.seconds),
            "iterations": int(self.iterations),
            "ordering_seconds": float(self.ordering_seconds),
            "estimate": self.estimate.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        try:
            return cls(
                graph=str(data["graph"]),
                algorithm=str(data["algorithm"]),
                framework=str(data["framework"]),
                ordering=str(data["ordering"]),
                # Payloads persisted before the machine layer carry no
                # machine tag; they were priced on the (default) paper
                # machine by construction.
                machine=str(data.get("machine", DEFAULT_MACHINE)),
                seconds=float(data["seconds"]),
                iterations=int(data["iterations"]),
                ordering_seconds=float(data["ordering_seconds"]),
                estimate=RuntimeEstimate.from_dict(data["estimate"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ResultsError(f"malformed ExperimentResult payload: {exc}") from exc


@dataclass(frozen=True)
class TraceExecution:
    """One algorithm execution, decoupled from pricing.

    The trace plus the iteration count are everything pricing needs from
    the execution; ``replayed`` records whether they were loaded from the
    persistent trace store (:mod:`repro.store.traces`) instead of
    executed.  One execution prices under any framework personality —
    they all account work at the same partition granularity — which is
    what lets the sweep run each (graph, ordering, algorithm) cell once
    and fan the trace out per framework.
    """

    trace: object            # WorkTrace
    iterations: int
    replayed: bool = False


def _edge_order_for(framework: str, ordering: str) -> str:
    """GraphGrind's COO order policy (Section V-G); others use CSR/CSC."""
    if framework == "graphgrind":
        return "csr" if ordering == "vebo" else "hilbert"
    return "csc"


#: base graph -> {(ordering, edge_order, perm digest) -> (src, dst) miss
#: pair}.  The measurement is a deterministic function of the reordered
#: layout and the traversal order, and repeated sweeps over one loaded
#: graph re-derive the same layouts; the permutation is identified by its
#: SHA-256 (the store's content-hash convention — constant-size keys even
#: for full-scale graphs), and the weak outer key lets the memo die with
#: the graph.
_LOCALITY_MEMO: "WeakKeyDictionary[Graph, dict]" = WeakKeyDictionary()


def _measure_locality(graph: Graph, edge_order: str, sample: int = 200_000) -> tuple[float, float]:
    """Miss fractions of the (src, dst) streams under the edge order the
    framework actually traverses."""
    if edge_order == "hilbert":
        coo = hilbert_order_edges(COOEdges.from_graph(graph, order="csr"))
        srcs, dsts = coo.src, coo.dst
    elif edge_order == "csr":
        srcs, dsts = graph.edges()
    else:  # csc
        srcs, dsts = graph.edges_csc()
    if srcs.size > sample:
        start = (srcs.size - sample) // 2
        srcs = srcs[start : start + sample]
        dsts = dsts[start : start + sample]
    window = reuse_window(graph.num_vertices)
    return (
        measure_stream(srcs, window=window).miss_fraction(),
        measure_stream(dsts, window=window).miss_fraction(),
    )


def prepare(
    graph: Graph,
    ordering: str,
    num_partitions: int,
    cache: object = False,
    refresh: bool = False,
    **ordering_kwargs,
) -> PreparedGraph:
    """Reorder ``graph`` and cut the new numbering into ``num_partitions``
    destination chunks (the paper's Figure 2 pipeline).

    VEBO runs at ``num_partitions`` and its own boundaries are the cuts;
    every other ordering, and a VEBO result that carries no
    ``num_partitions + 1`` boundaries, is cut by Algorithm 1's scan.  This
    is the only code that applies that rule.

    ``cache`` opts the (expensive) ordering step into the
    :mod:`repro.store` artifact cache; content addressing on the graph's
    arrays guarantees a replayed permutation matches this exact graph.
    The default ``False`` keeps ``ordering_seconds`` a fresh measurement.
    """
    if ordering == "vebo":
        ordering_kwargs.setdefault("num_partitions", num_partitions)
    if cache is not False:
        from repro.store import cached_ordering

        result = cached_ordering(
            graph, ordering, cache=cache, refresh=refresh, **ordering_kwargs
        )
    else:
        result = get_ordering(ordering)(graph, **ordering_kwargs)
    reordered = apply_ordering(graph, result)
    boundaries = result.meta.get("boundaries", ()) if ordering == "vebo" else ()
    if len(boundaries) != num_partitions + 1:
        boundaries = chunk_boundaries(reordered.in_degrees(), num_partitions)
    return PreparedGraph(
        graph=reordered,
        ordering=ordering,
        perm=result.perm,
        orig_ids=result.inverse(),
        boundaries=boundaries,
        ordering_seconds=result.seconds,
    )


def _execute_algorithm(graph: Graph, algorithm: str, kwargs: dict):
    """The single seam through which every algorithm execution flows.

    Module-level (rather than inlined in :func:`execute`) so equivalence
    tests can wrap it with an execution-counting spy and prove the dedup
    sweep runs each (graph, ordering, algorithm) identity exactly once.
    """
    return ALGORITHMS[algorithm](graph, **kwargs)


def _flush_measurements(
    trace, key, trace_store, *, graph_name, ordering, num_partitions, boundaries
) -> None:
    """Persist the trace's per-chunk timing samples (no-op when the trace
    recorded none — the sequential backends never do)."""
    from repro.store.measurements import MeasurementStore, samples_from_trace

    samples = samples_from_trace(
        trace, key, graph_name=graph_name, ordering=ordering,
        num_partitions=num_partitions, boundaries=boundaries,
    )
    if samples:
        MeasurementStore.in_cache(trace_store).append(samples)


def execute(
    graph: Graph,
    algorithm: str,
    ordering: str = "original",
    prepared: PreparedGraph | None = None,
    num_partitions: int = ACCOUNTING_CHUNKS,
    cache: object = False,
    traces: object = False,
    refresh: bool = False,
    backend: str | None = None,
    replay_only: bool = False,
    **algo_kwargs,
) -> TraceExecution:
    """Execute one (graph, ordering, algorithm) identity — or replay it.

    ``traces`` opts the execution into the persistent trace store (same
    cache-handle convention as ``cache``): the store is consulted first
    under the execution's content key (:func:`repro.store.trace_key` —
    graph content, ordering, partition count, algorithm + kwargs; *not*
    framework or backend), the algorithm runs only on a miss, and a fresh
    trace is persisted for every later run.  ``refresh=True`` skips the
    consult (re-execute and overwrite).  ``num_partitions`` defaults to
    the shared accounting granularity every framework personality prices
    at.  A ``prepared`` graph cut at another partition count raises
    :class:`~repro.errors.ResultsError`.

    ``replay_only=True`` turns a trace-store miss into an error instead
    of an execution — the contract behind ``sweep reprice``, which
    promises to price a matrix without running a single algorithm.
    """
    ordering_name = prepared.ordering if prepared is not None else ordering
    # Thread-local context: every event emitted below this frame — cache
    # gets, engine steps, band timings — carries the cell's identity.
    with obs.context(graph=graph.name, ordering=ordering_name, algorithm=algorithm), \
            obs.span("run.execute", cat="run"):
        result = _execute_inner(
            graph, algorithm, ordering_name, ordering, prepared, num_partitions,
            cache, traces, refresh, backend, replay_only, algo_kwargs,
        )
        if obs.enabled():
            # Sampled once per execution: the memory-footprint trend across
            # a sweep (flat under mmap, staircase under eager loads).
            obs.metrics().gauge("process.rss_bytes", obs.rss_bytes())
        return result


def _execute_inner(
    graph, algorithm, ordering_name, ordering, prepared, num_partitions,
    cache, traces, refresh, backend, replay_only, algo_kwargs,
) -> TraceExecution:
    if prepared is not None and prepared.boundaries.size != num_partitions + 1:
        raise ResultsError(
            f"{graph.name}/{ordering_name} was prepared at "
            f"P={prepared.boundaries.size - 1} but executes at "
            f"P={num_partitions}; prepare it at the count it executes at"
        )
    trace_store = None
    key = None
    if traces is not False:
        from repro.store import load_trace, resolve_cache, trace_key

        trace_store = resolve_cache(traces)
        if trace_store is not None:
            key = trace_key(
                graph, algorithm, ordering_name, num_partitions, algo_kwargs
            )
            stored = None if refresh else load_trace(key, cache=trace_store)
            if stored is not None:
                return TraceExecution(
                    trace=stored.trace,
                    iterations=stored.iterations,
                    replayed=True,
                )
    if replay_only:
        where = (
            f"trace store at {trace_store.root}" if trace_store is not None
            else "disabled trace store"
        )
        raise ResultsError(
            f"replay-only execution of {graph.name}/{ordering_name}/"
            f"{algorithm} (P={num_partitions}) missed the {where}; "
            "pre-warm it with `traces build` (matching graphs, orderings, "
            "algorithms and scale) or run a regular `sweep run` first"
        )
    if prepared is None:
        prepared = prepare(graph, ordering, num_partitions=num_partitions, cache=cache)
    g = prepared.graph
    boundaries = prepared.boundaries

    kwargs = dict(algo_kwargs)
    kwargs["num_partitions"] = num_partitions
    kwargs["boundaries"] = boundaries
    if backend is not None:
        kwargs["backend"] = backend
    if algorithm in ("SPMV", "BF", "BP"):
        kwargs.setdefault("orig_ids", prepared.orig_ids)
    if algorithm in ("BFS", "BC", "BF"):
        # The traversal source must be the same *original* vertex under
        # every ordering or the computations are not comparable; default to
        # the original graph's highest-out-degree vertex (a hub reaches a
        # large component, giving frontiers something to do).
        src_orig = kwargs.pop("source_orig", None)
        if src_orig is None:
            src_orig = int(np.argmax(graph.out_degrees()))
        kwargs["source"] = int(prepared.perm[src_orig])
    result = _execute_algorithm(g, algorithm, kwargs)

    if trace_store is not None:
        from repro.store import save_trace

        save_trace(
            key, result.trace, result.iterations, cache=trace_store,
            labels={"ordering": prepared.ordering}, refresh=refresh,
        )
        # Drain the trace's measurement side channel into the persistent
        # measurement store NOW, at record time: the trace bundle
        # deliberately drops ``meta`` (replayed traces must be
        # bit-identical to fresh ones), so this is the only moment the
        # (work, wall-clock) samples behind `machines calibrate` exist.
        _flush_measurements(
            result.trace, key, trace_store,
            graph_name=graph.name, ordering=ordering_name,
            num_partitions=num_partitions, boundaries=boundaries,
        )
    return TraceExecution(
        trace=result.trace, iterations=result.iterations, replayed=False,
    )


def price(
    execution: TraceExecution,
    graph: Graph,
    framework: str | FrameworkModel,
    prepared: PreparedGraph,
    machine: str | MachineModel | None = None,
) -> ExperimentResult:
    """Price one execution under one framework personality on one machine.

    Pricing is a pure function of (trace, layout, machine), so any number
    of (framework, machine) pairs can price the same
    :class:`TraceExecution` — fresh or replayed — and produce exactly what
    a dedicated end-to-end :func:`run` would have.  ``framework`` is a
    :data:`~repro.frameworks.personality.FRAMEWORKS` name or a
    :class:`~repro.frameworks.personality.FrameworkModel`; ``machine`` is
    a registry name or :class:`~repro.machine.models.MachineModel`, and
    ``None`` is the paper machine.  The layout's locality under the
    framework's edge order is measured once per prepared graph.
    """
    fw = resolve_framework(framework)
    machine_model = resolve_machine(machine)
    edge_order = _edge_order_for(fw.name, prepared.ordering)
    if edge_order not in prepared.locality:
        import hashlib

        memo = _LOCALITY_MEMO.setdefault(graph, {})
        perm_digest = hashlib.sha256(prepared.perm.tobytes()).digest()
        mkey = (prepared.ordering, edge_order, perm_digest)
        pair = memo.get(mkey)
        if pair is None:
            pair = _measure_locality(prepared.graph, edge_order)
            memo[mkey] = pair
        prepared.locality[edge_order] = pair
    estimate = fw.price(execution.trace, prepared.locality[edge_order], machine_model)
    return ExperimentResult(
        graph=graph.name,
        algorithm=execution.trace.algorithm,
        framework=fw.name,
        ordering=prepared.ordering,
        machine=machine_model.name,
        seconds=estimate.seconds,
        iterations=execution.iterations,
        ordering_seconds=prepared.ordering_seconds,
        estimate=estimate,
    )


def run(
    graph: Graph,
    algorithm: str,
    framework: str | FrameworkModel,
    ordering: str = "original",
    prepared: PreparedGraph | None = None,
    cache: object = False,
    traces: object = False,
    backend: str | None = None,
    machine: str | MachineModel | None = None,
    **algo_kwargs,
) -> ExperimentResult:
    """Run one configuration and price it (= :func:`execute` + :func:`price`).

    ``prepared`` short-circuits the reordering when the caller sweeps many
    algorithms over one prepared graph; ``cache`` opts the reordering into
    the :mod:`repro.store` artifact cache instead, and ``traces`` opts the
    execution into the persistent trace store (the algorithm only runs
    when no stored trace matches).  ``backend`` picks the engine
    implementation (:mod:`repro.frameworks.backends`; ``None`` defers to
    ``REPRO_BACKEND``) — backends are conformance-tested bit-identical,
    so the resulting :class:`ExperimentResult` carries no backend tag:
    the same cell computed under any backend is the same result, only
    cheaper.  ``machine`` re-prices the cell on another machine
    personality (:mod:`repro.machine.models`) — unlike the backend it
    *does* tag the result, because it changes what the numbers mean.
    """
    fw = resolve_framework(framework)
    if prepared is None:
        prepared = prepare(graph, ordering, ACCOUNTING_CHUNKS, cache=cache)
    execution = execute(
        graph, algorithm, prepared=prepared, traces=traces, backend=backend,
        **algo_kwargs,
    )
    return price(execution, graph, fw, prepared, machine=machine)

