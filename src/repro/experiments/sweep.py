"""Parallel, resumable sweep orchestrator for the Table III matrix.

:func:`repro.experiments.runner.run` prices one cell in-process.  This
module scales that out to a whole matrix:

* the full (graph, algorithm, framework, ordering) matrix is expanded
  into :class:`SweepCell`\\ s, each identified by the same canonical
  content-hash key the artifact cache uses;
* execution groups (below) fan out across a
  :class:`~concurrent.futures.ProcessPoolExecutor` — each worker loads
  its graph and ordering *warm* through :mod:`repro.store`, prices the
  group's cells, and returns serializable
  :class:`~repro.experiments.runner.ExperimentResult`\\ s;
* the parent (the single writer) appends every completed cell to a
  :class:`~repro.experiments.results.ResultsStore` the moment it arrives,
  so an interrupted sweep loses at most the in-flight cells and a
  re-invocation with ``resume=True`` skips everything already persisted.

Workers recompute nothing semantic: pricing is deterministic, so every
modeled field of a cell (``seconds``, ``iterations``, the per-iteration
estimate) computed by any worker, any process, any day is byte-identical
to a per-cell :func:`~repro.experiments.runner.run` — the equivalence
the test suite pins down.  The one wall-clock field,
``ordering_seconds``, is byte-stable only when a shared artifact cache
replays the recorded ordering; cache-less runs re-measure it per process.

Scheduling is **trace-aware**: cells are grouped by *execution identity*
— (dataset, params, ordering, algorithm, algo kwargs, partition count),
everything that determines what the algorithm does, which excludes the
framework since all personalities price at the same accounting
granularity, and the machine model since a machine only prices — and
each group executes its algorithm once (consulting the persistent trace
store first, via :func:`repro.experiments.runner.execute`), then fans the
trace out to per-(framework, machine) pricing.  A full
Ligra+Polymer+GraphGrind matrix therefore does one third of the semantic
work, and a re-sweep over a warm trace store executes nothing at all.
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro import obs
from repro.errors import ResultsError
from repro.experiments.results import ResultsStore, result_cell_key
from repro.experiments.runner import (
    ExperimentResult,
    execute,
    prepare,
    price,
)
from repro.frameworks.personality import ACCOUNTING_CHUNKS
from repro.machine.models import DEFAULT_MACHINE

__all__ = [
    "SweepCell",
    "expand_matrix",
    "group_cells",
    "run_cells",
    "run_matrix",
]


@dataclass(frozen=True)
class SweepCell:
    """One cell of the sweep matrix, addressable by dataset name.

    Cells reference graphs through the :mod:`repro.store` registry (not as
    in-memory objects) so they are cheap to pickle to workers and so the
    cell key captures the *full* graph identity (dataset + build
    parameters) rather than a Python object.
    """

    dataset: str
    algorithm: str
    framework: str
    ordering: str
    params: dict = field(default_factory=dict)       # dataset build params
    algo_kwargs: dict = field(default_factory=dict)  # per-algorithm kwargs
    #: Engine backend the cell executes on (None = REPRO_BACKEND / default).
    #: Deliberately NOT part of the cell key: backends are conformance-
    #: tested bit-identical, so a cell's result does not depend on which
    #: engine computed it — a sweep resumed under ``parallel`` reuses
    #: cells persisted under ``vectorized`` and vice versa.
    backend: str | None = None
    #: Machine personality the cell is priced on (:mod:`repro.machine
    #: .models`).  Part of the cell *key* — two machines are two results —
    #: but never of the execution identity: like the framework, a machine
    #: only changes how the recorded work is priced.
    machine: str = DEFAULT_MACHINE

    def key(self) -> str:
        return result_cell_key(
            self.dataset,
            self.algorithm,
            self.framework,
            self.ordering,
            params=self.params,
            algo_kwargs=self.algo_kwargs,
            machine=self.machine,
        )

    def label(self) -> str:
        base = f"{self.dataset}/{self.framework}/{self.ordering}/{self.algorithm}"
        return base if self.machine == DEFAULT_MACHINE else f"{base}@{self.machine}"

    def execution_identity(self) -> str:
        """Everything that determines what the algorithm *does* — the
        grouping key of trace-aware scheduling.  Two cells with the same
        identity share one execution (and one stored trace); they may
        differ only in how the work is priced.  Every personality
        accounts at :data:`~repro.frameworks.personality.ACCOUNTING_CHUNKS`
        and the machine is a pure pricing dimension, so both are excluded
        and one execution fans out across the whole (framework x machine)
        matrix; the backend is excluded outright (bit-identical by
        conformance).  Uses the artifact cache's canonical hash scheme,
        like :meth:`key` minus the framework and machine."""
        from repro.store.cache import artifact_key

        return artifact_key(
            "execution",
            {
                "dataset": self.dataset,
                "params": dict(self.params),
                "ordering": self.ordering,
                "algorithm": self.algorithm,
                "algo_kwargs": dict(self.algo_kwargs),
                "num_partitions": ACCOUNTING_CHUNKS,
            },
        )


def group_cells(cells: Iterable[SweepCell]) -> list[list[SweepCell]]:
    """Partition cells into execution groups, preserving first-seen order
    both across groups and within each group."""
    groups: dict[str, list[SweepCell]] = {}
    for cell in cells:
        groups.setdefault(cell.execution_identity(), []).append(cell)
    return list(groups.values())


def expand_matrix(
    datasets: Sequence[str],
    algorithms: Sequence[str],
    frameworks: Sequence[str],
    orderings: Sequence[str],
    params: dict | None = None,
    algo_kwargs: dict | None = None,
    backend: str | None = None,
    machines: Sequence[str] = (DEFAULT_MACHINE,),
) -> list[SweepCell]:
    """Expand a matrix into cells, ordered per dataset machine ->
    framework -> ordering -> algorithm; results come back in this order.

    ``params`` applies to every dataset; ``algo_kwargs`` maps algorithm
    name -> kwargs (e.g. ``{"PR": {"num_iterations": 5}}``).
    ``machines`` multiplies the matrix by machine personality — a pricing
    dimension, so the extra cells share the same execution groups.

    Algorithm, framework, ordering and machine names are validated here,
    before any cell is keyed or dispatched — a typo must fail the whole
    sweep up front, not a worker mid-run.
    """
    from repro.algorithms import ALGORITHMS
    from repro.frameworks.personality import FRAMEWORKS
    from repro.machine.models import MACHINES
    from repro.ordering import ORDERING_REGISTRY
    from repro.store import DATASET_REGISTRY

    from repro.frameworks.backends import resolve_backend

    for names, registry, what in (
        (datasets, DATASET_REGISTRY, "dataset"),
        (algorithms, ALGORITHMS, "algorithm"),
        (frameworks, FRAMEWORKS, "framework"),
        (orderings, ORDERING_REGISTRY, "ordering"),
        (machines, MACHINES, "machine"),
    ):
        unknown = [n for n in names if n not in registry]
        if unknown:
            raise ResultsError(
                f"unknown {what}(s) {unknown}; available: {sorted(registry)}"
            )
    if backend is not None:
        resolve_backend(backend)  # raises on an unknown backend name
    params = dict(params or {})
    algo_kwargs = dict(algo_kwargs or {})
    return [
        SweepCell(
            dataset=d,
            algorithm=a,
            framework=f,
            ordering=o,
            params=params,
            algo_kwargs=dict(algo_kwargs.get(a, {})),
            backend=backend,
            machine=m,
        )
        for d in datasets
        for m in machines
        for f in frameworks
        for o in orderings
        for a in algorithms
    ]


# ----------------------------------------------------------------------
# cell execution (runs in workers for jobs > 1, inline for jobs == 1)
# ----------------------------------------------------------------------

def _load_group_context(cell: SweepCell, cache, graphs: dict, prepared: dict):
    """Memoized (graph, prepared ordering) lookup for one cell.

    ``graphs``/``prepared`` are caller-owned memo dicts: per-process
    globals in pool workers, per-call locals in the inline path.  Memory
    stays bounded to *one* graph plus its prepared orderings: entries for
    other graphs are evicted on a dataset switch (the dispatch queue is
    sorted by dataset precisely so switches are rare, and the artifact
    cache keeps any re-load warm)."""
    from repro import store

    gkey = (cell.dataset, tuple(sorted(cell.params.items())))
    for memo in (graphs, prepared):
        for stale in [k for k in memo if (k[0], k[1]) != gkey]:
            del memo[stale]
    if gkey not in graphs:
        graphs[gkey] = store.load_graph(cell.dataset, cache=cache, **cell.params)
    graph = graphs[gkey]

    pkey = (*gkey, cell.ordering)
    if pkey not in prepared:
        prepared[pkey] = prepare(graph, cell.ordering, ACCOUNTING_CHUNKS, cache=cache)
    return graph, prepared[pkey]


def _compute_group(
    group: list[SweepCell],
    cache,
    graphs: dict,
    prepared: dict,
    replay_only: bool = False,
) -> tuple[list[ExperimentResult], bool]:
    """Execute one group's algorithm once, price it under every cell's
    (framework, machine) pair.  Returns the per-cell results (in group
    order) plus whether the execution was replayed from the trace store.

    The trace store rides in the same artifact cache as everything else;
    cache-less runs still dedup (one fresh execution fans out to every
    framework) but persist nothing.  ``replay_only`` forwards the
    ``sweep reprice`` contract: a trace-store miss raises instead of
    executing."""
    first = group[0]
    graph, prep = _load_group_context(first, cache, graphs, prepared)
    execution = execute(
        graph,
        first.algorithm,
        prepared=prep,
        traces=cache,
        backend=first.backend,
        replay_only=replay_only,
        **first.algo_kwargs,
    )
    results = [
        price(execution, graph, cell.framework, prep, machine=cell.machine)
        for cell in group
    ]
    return results, execution.replayed


# Per-worker-process memos: populated lazily, shared across every cell the
# worker executes, discarded with the process.
_WORKER_GRAPHS: dict = {}
_WORKER_PREPARED: dict = {}


def _sweep_obs_dir(cache_root: str | None) -> Path | None:
    """``<cache_root>/obs``, where every process of a sweep on
    ``cache_root`` logs, when this process's sink must be pointed there;
    ``None`` when obs is off, the sweep runs cache-less, ``REPRO_OBS_DIR``
    names the directory, or the sink already resolves there.  No
    environment variable carries a cache *instance*'s root, so the
    orchestrator (:func:`run_cells`, for the sweep) and each worker (per
    task) point their sinks here; a worker reports its own event file
    with its results, and the orchestrator merges exactly those files."""
    if not obs.enabled() or cache_root is None or os.environ.get(obs.OBS_DIR_ENV_VAR):
        return None
    obs_dir = Path(cache_root) / "obs"
    return None if obs_dir == obs.resolve_obs_dir() else obs_dir


def _register_cache_machines(cache) -> None:
    """Register user machine personalities from ``cache`` in this process.

    Pool workers re-import every module fresh, so machines installed via
    ``machines add`` (JSON files under the cache's ``machines/`` dir) do
    not exist in the worker's registry until re-loaded; a cell pricing
    under one would otherwise fail name resolution.  Idempotent and cheap
    (one directory glob), so workers call it per task."""
    from repro.machine.models import load_user_machines
    from repro.store import resolve_cache

    resolved = resolve_cache(cache)
    if resolved is not None:
        load_user_machines(resolved.root)


def _worker_run_group(
    group: list[SweepCell], cache_root: str | None, replay_only: bool = False
) -> dict:
    """Pool entry point: one execution, per-cell pricing.

    Returns the serialized results in group order, the replay flag (one
    flag for the whole group: its cells share the execution) and the
    worker's event file (``None`` when it has none).
    ``cache_root`` rather than a cache object crosses the process
    boundary, keeping the task payload picklable under every start
    method.  ``None`` means the orchestrator ran cache-less, so the
    worker builds from scratch too."""
    from repro.store import ArtifactCache

    cache = ArtifactCache(cache_root) if cache_root is not None else False
    obs_dir = _sweep_obs_dir(cache_root)
    if obs_dir is not None:
        obs.set_obs_dir(obs_dir)
    _register_cache_machines(cache)
    results, replayed = _compute_group(
        group, cache, _WORKER_GRAPHS, _WORKER_PREPARED, replay_only=replay_only
    )
    return {
        "results": [r.to_dict() for r in results],
        "replayed": replayed,
        "events": obs.events_path(),
    }


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------

ProgressFn = Callable[[SweepCell, ExperimentResult, bool], None]


def run_cells(
    cells: Iterable[SweepCell],
    *,
    jobs: int = 1,
    store: "ResultsStore | str | os.PathLike | None" = None,
    resume: bool = True,
    cache=None,
    replay_only: bool = False,
    progress: ProgressFn | None = None,
    stats: dict | None = None,
) -> list[ExperimentResult]:
    """Execute ``cells``, returning results in the given cell order.

    ``store`` (a :class:`ResultsStore` or a path) persists each completed
    cell as it finishes; with ``resume=True`` cells whose key is already
    present are *not* re-run — their stored results are returned in place.
    ``jobs`` > 1 fans pending work out over a process pool; ``jobs`` <= 1
    runs inline (no pool, still through the identical code path).
    ``cache`` is the usual artifact-cache convention
    (:func:`repro.store.resolve_cache`); workers share it, so orderings
    computed by one worker are warm for every other.

    Work is scheduled by execution group: each (graph, ordering,
    algorithm) identity executes once — consulting the persistent trace
    store first when the cache is enabled — and every framework prices
    the shared trace.

    ``replay_only=True`` (the ``sweep reprice`` contract) promises this
    call executes **zero** algorithms: every pending group must replay
    from the persistent trace store, and a miss raises instead of
    executing.  Requires an enabled ``cache``.

    ``progress(cell, result, skipped)`` is invoked once per cell.
    ``stats``, when given, is filled with dedup accounting: targeted
    ``cells``, ``resumed``/``computed`` counts, pending execution
    ``groups``, and how many groups were ``executed`` fresh vs
    ``replayed`` from the trace store.
    """
    from repro.store import resolve_cache

    cells = list(cells)
    resolved = resolve_cache(cache)
    worker_events: set = set()
    obs_dir = _sweep_obs_dir(str(resolved.root) if resolved is not None else None)
    previous_obs_dir = obs.set_obs_dir(obs_dir) if obs_dir is not None else None
    try:
        with obs.span("sweep.run", cat="sweep", cells=len(cells), jobs=int(jobs)):
            try:
                return _run_cells_inner(
                    cells, jobs=jobs, store=store, resume=resume,
                    resolved=resolved, replay_only=replay_only,
                    progress=progress, stats=stats, worker_events=worker_events,
                )
            finally:
                if obs.enabled():
                    # Fold the event files the pool workers reported into
                    # ours (the pool has exited, so none is still being
                    # written), then persist the metrics the run accumulated
                    # (cache hit counters, band-imbalance histograms, cells).
                    obs.merge_process_files(sorted(worker_events))
                    obs.flush_metrics()
    finally:
        if obs_dir is not None:
            obs.set_obs_dir(previous_obs_dir)


def _run_cells_inner(
    cells: list[SweepCell],
    *,
    jobs: int,
    store: "ResultsStore | str | os.PathLike | None",
    resume: bool,
    resolved,
    replay_only: bool,
    progress: ProgressFn | None,
    stats: dict | None,
    worker_events: set,
) -> list[ExperimentResult]:
    if isinstance(store, (str, os.PathLike)):
        store = ResultsStore(store)

    done: dict[str, ExperimentResult] = {}
    if store is not None and resume:
        done = store.records()

    keyed = [(cell, cell.key()) for cell in cells]
    results: dict[str, ExperimentResult] = {}
    pending: list[tuple[SweepCell, str]] = []
    seen: set[str] = set()
    resumed = 0
    for cell, key in keyed:
        if key in done:
            results[key] = done[key]
            resumed += 1
            obs.metrics().counter("sweep.cells_resumed")
            obs.event("sweep.cell", cat="sweep", status="resumed", cell=cell.label())
            if progress is not None:
                progress(cell, done[key], True)
        elif key not in seen:
            seen.add(key)
            pending.append((cell, key))
            obs.event("sweep.cell", cat="sweep", status="queued", cell=cell.label())

    if replay_only and resolved is None:
        raise ResultsError(
            "replay_only needs the artifact cache (it holds the trace "
            "store); enable caching or drop replay_only"
        )
    cache_root = str(resolved.root) if resolved is not None else None
    counters = {"executed": 0, "replayed": 0}

    key_of = dict((id(cell), key) for cell, key in pending)
    groups = group_cells(cell for cell, _ in pending)

    def record(cell: SweepCell, key: str, result: ExperimentResult,
               replayed: bool) -> None:
        results[key] = result
        status = "replayed" if replayed else "executed"
        # The counter feeds progress heartbeats even when event logging
        # is off — the registry is in-memory and always live.
        obs.metrics().counter(f"sweep.cells_{status}")
        obs.metrics().gauge("process.rss_bytes", obs.rss_bytes())
        obs.event("sweep.cell", cat="sweep", status=status, cell=cell.label())
        if store is not None:
            store.append(
                key, result,
                meta={
                    "dataset": cell.dataset,
                    "params": cell.params,
                    "trace_replayed": bool(replayed),
                },
            )
        if progress is not None:
            progress(cell, result, False)

    def record_group(group: list[SweepCell], group_results, replayed: bool) -> None:
        counters["replayed" if replayed else "executed"] += 1
        for cell, result in zip(group, group_results):
            record(cell, key_of[id(cell)], result, replayed)

    if jobs <= 1 or len(groups) <= 1:
        graphs: dict = {}
        prepared: dict = {}
        cache_arg = resolved if resolved is not None else False
        for group in groups:
            group_results, replayed = _compute_group(
                group, cache_arg, graphs, prepared, replay_only=replay_only
            )
            record_group(group, group_results, replayed)
    else:
        # Sort the dispatch queue so groups sharing a (graph, ordering)
        # land contiguously — workers pulling neighbouring tasks reuse
        # their per-process prepared-graph memos instead of reordering
        # again.
        queue = sorted(
            groups,
            key=lambda g: (g[0].dataset, g[0].ordering, g[0].framework),
        )
        failure: tuple[SweepCell, BaseException] | None = None
        with ProcessPoolExecutor(max_workers=min(jobs, len(queue))) as pool:
            futures = {
                pool.submit(_worker_run_group, group, cache_root, replay_only): group
                for group in queue
            }
            outstanding = set(futures)
            while outstanding:
                finished, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                # Persist the moment each group lands: an interruption now
                # costs only the work still in flight.  A failed group must
                # not discard its siblings' results — cancel what has not
                # started, keep draining and persisting what has, and
                # raise only once everything that finished is on disk.
                for fut in finished:
                    group = futures[fut]
                    try:
                        payload = fut.result()
                    except BaseException as exc:  # worker died or raised
                        if failure is None:
                            failure = (group[0], exc)
                            for f in outstanding:
                                f.cancel()
                        continue
                    record_group(
                        group,
                        [ExperimentResult.from_dict(d) for d in payload["results"]],
                        payload["replayed"],
                    )
                    if payload["events"] is not None:
                        worker_events.add(payload["events"])
                outstanding = {f for f in outstanding if not f.cancelled()}
        if failure is not None:
            cell, exc = failure
            raise ResultsError(
                f"sweep cell {cell.label()} failed: {exc} "
                f"({len(results)} completed cell(s) were persisted)"
            ) from exc

    if stats is not None:
        stats.update(
            cells=len(keyed),
            resumed=resumed,
            computed=sum(len(g) for g in groups),
            groups=len(groups),
            executed=counters["executed"],
            replayed=counters["replayed"],
        )
    missing = [cell.label() for cell, key in keyed if key not in results]
    if missing:  # pragma: no cover - defensive; pool errors raise above
        raise ResultsError(f"sweep finished with uncomputed cells: {missing}")
    return [results[key] for _, key in keyed]


def run_matrix(
    datasets: Sequence[str],
    algorithms: Sequence[str],
    frameworks: Sequence[str],
    orderings: Sequence[str],
    *,
    params: dict | None = None,
    algo_kwargs: dict | None = None,
    backend: str | None = None,
    machines: Sequence[str] = (DEFAULT_MACHINE,),
    jobs: int = 1,
    store: "ResultsStore | str | os.PathLike | None" = None,
    resume: bool = True,
    cache=None,
    replay_only: bool = False,
    progress: ProgressFn | None = None,
    stats: dict | None = None,
) -> list[ExperimentResult]:
    """Expand a full matrix and execute it (see :func:`run_cells`).

    Results come back in :func:`expand_matrix` order.  ``machines``
    multiplies the matrix by machine personality; combined with
    ``replay_only=True`` over a warm trace store this is the ``sweep
    reprice`` engine — the whole (framework x machine) matrix priced with
    zero executions.
    """
    cells = expand_matrix(
        datasets, algorithms, frameworks, orderings,
        params=params, algo_kwargs=algo_kwargs, backend=backend,
        machines=machines,
    )
    return run_cells(
        cells, jobs=jobs, store=store, resume=resume, cache=cache,
        replay_only=replay_only, progress=progress, stats=stats,
    )
