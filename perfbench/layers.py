"""Per-layer timing from outside the program.

A :class:`LayerTracer` replaces the public functions the pipeline calls,
at the names its callers look them up (module globals, class attributes,
registry entries), with wrappers that time each call and count its work.
Nothing under ``src/`` knows it is being traced, and :meth:`restore` puts
every original object back.

Every ``*_s`` metric is a layer's *self* time: the time inside its wrapped
calls minus the time spent in wrapped calls nested inside them (a graph
build inside ``store.load_graph``, a scheduler inside
``FrameworkModel.price``).  The self times therefore partition the traced
calls without double counting, and

    sum of self times == sum of top-level wrapped calls
    top-level wrapped calls + experiments.unattributed_s == traced wall time

which :func:`check_accounting` verifies.
"""

from __future__ import annotations

import functools
import re
import time

#: Engine entry points, one per algorithm of the Table III matrix.
ALGORITHMS = ("PR", "BFS", "PRD", "BF", "CC", "BC", "SPMV", "BP")

#: The scheduler each framework personality prices with, as
#: ``repro.frameworks.personality`` looks it up.
SCHEDULERS = {
    "ligra": "cilk_recursive_schedule",
    "polymer": "static_numa_schedule",
    "graphgrind": "hierarchical_numa_schedule",
}

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Every per-layer metric a traced run reports, by layer, with its unit.
PER_LAYER = {
    # frameworks / algorithms: the engine
    "frameworks.execute_s": "s",
    "frameworks.executions": "count",
    "frameworks.steps": "count",
    "frameworks.edges": "count",
    **{f"algorithms.{name}_s": "s" for name in ALGORITHMS},
    # machine: pricing through FrameworkModel.price
    "machine.price_s": "s",
    "machine.price_calls": "count",
    "machine.records_priced": "count",
    **{f"machine.schedule_s.{fw}": "s" for fw in SCHEDULERS},
    "machine.schedule_calls": "count",
    "machine.locality_s": "s",
    "machine.locality_calls": "count",
    # ordering / partition
    "ordering.cached_ordering_s": "s",
    "ordering.cached_ordering_calls": "count",
    "ordering.apply_ordering_s": "s",
    "ordering.apply_ordering_calls": "count",
    "partition.chunk_boundaries_s": "s",
    "partition.chunk_boundaries_calls": "count",
    # graph / store: ingest and artifact I/O
    "graph.build_s": "s",
    "graph.builds": "count",
    "store.load_graph_s": "s",
    "store.load_graph_calls": "count",
    "store.save_trace_s": "s",
    "store.save_trace_calls": "count",
    "store.bytes_written": "bytes",
    "store.load_trace_s": "s",
    "store.load_trace_calls": "count",
    "store.trace_hits": "count",
    "store.trace_replay_ratio": "ratio",
    # experiments: the sweep and the results store
    "experiments.results_append_s": "s",
    "experiments.results_appends": "count",
    "experiments.keying_s": "s",
    "experiments.keying_calls": "count",
    "experiments.unattributed_s": "s",
    "trace_overhead_s": "s",
}

#: Metrics computed from the others (or, for the overhead, from the
#: untraced processes) rather than accumulated by a wrapper.
DERIVED = ("frameworks.execute_s", "store.trace_replay_ratio",
           "experiments.unattributed_s", "trace_overhead_s")


class LayerTracer:
    """Wraps the pipeline's layer entry points; collects self time and counts."""

    def __init__(self) -> None:
        accumulated = [name for name in PER_LAYER if name not in DERIVED]
        self.seconds = {name: 0.0 for name in accumulated if PER_LAYER[name] == "s"}
        self.counts = {name: 0 for name in accumulated if PER_LAYER[name] != "s"}
        self.top_level_s = 0.0
        self._nested: list[float] = []   # per open span: time of its wrapped children
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _timed(self, fn, time_metric: str, count_metric: str, after=None):
        """``fn`` wrapped to add its self time to ``time_metric`` and one
        call to ``count_metric``; ``after(args, kwargs, result)`` runs
        outside the timed span and may add counts."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nested = tracer._nested
            nested.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                children = nested.pop()
                tracer.seconds[time_metric] += elapsed - children
                if nested:
                    nested[-1] += elapsed
                else:
                    tracer.top_level_s += elapsed
                tracer.counts[count_metric] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, after):
        """``fn`` wrapped to run ``after(args, kwargs, result)``; no span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    def _wrap(self, owner, attr: str, time_metric: str, count_metric: str,
              after=None) -> None:
        self._patch(owner, attr, lambda f: self._timed(f, time_metric, count_metric, after))

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else owner.__dict__[attr]
        wrapped = wrapper_factory(original)
        if is_dict:
            owner[attr] = wrapped
        else:
            setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer entry point (idempotence is not supported:
        call :meth:`restore` before installing again)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import repro.store as store
        from repro.algorithms import ALGORITHMS as registry
        from repro.experiments import runner
        from repro.experiments.results import ResultsStore
        from repro.experiments.sweep import SweepCell
        from repro.frameworks import personality
        from repro.store.cache import ArtifactCache
        from repro.store.registry import DatasetSpec

        counts = self.counts
        wrap = self._wrap

        def add(name, amount):
            counts[name] += int(amount)

        # graph / store: ingest and artifact I/O
        wrap(DatasetSpec, "build", "graph.build_s", "graph.builds")
        wrap(store, "load_graph", "store.load_graph_s", "store.load_graph_calls")
        wrap(store, "save_trace", "store.save_trace_s", "store.save_trace_calls")
        wrap(store, "load_trace", "store.load_trace_s", "store.load_trace_calls",
             after=lambda a, k, r: add("store.trace_hits", r is not None))
        # Bytes of array payload handed to the artifact cache.  Counted
        # from the arrays, not the files: the small JSON metadata carries
        # wall-clock floats whose printed length varies from run to run.
        self._patch(ArtifactCache, "store", lambda f: self._counted(
            f, lambda a, k, r: add("store.bytes_written", sum(
                arr.nbytes for arr in _bundle_arrays(a, k).values()
                if getattr(arr, "dtype", None) is not None and arr.dtype.kind in "biuf"))))
        # ordering / partition
        wrap(store, "cached_ordering", "ordering.cached_ordering_s",
             "ordering.cached_ordering_calls")
        wrap(runner, "apply_ordering", "ordering.apply_ordering_s",
             "ordering.apply_ordering_calls")
        wrap(runner, "chunk_boundaries", "partition.chunk_boundaries_s",
             "partition.chunk_boundaries_calls")

        # frameworks / algorithms: the engine
        def count_execution(args, kwargs, result):
            trace = result.trace
            add("frameworks.steps", len(trace.records))
            add("frameworks.edges", trace.total_edges())

        for name in ALGORITHMS:
            wrap(registry, name, f"algorithms.{name}_s", "frameworks.executions",
                 after=count_execution)

        # machine: pricing
        wrap(personality.FrameworkModel, "price", "machine.price_s", "machine.price_calls",
             after=lambda a, k, r: add("machine.records_priced", len(_price_trace(a, k).records)))
        for fw, fn_name in SCHEDULERS.items():
            wrap(personality, fn_name, f"machine.schedule_s.{fw}", "machine.schedule_calls")
        wrap(runner, "measure_stream", "machine.locality_s", "machine.locality_calls")

        # experiments: the sweep and the results store
        wrap(ResultsStore, "append", "experiments.results_append_s",
             "experiments.results_appends")
        wrap(SweepCell, "key", "experiments.keying_s", "experiments.keying_calls")
        wrap(SweepCell, "execution_identity", "experiments.keying_s",
             "experiments.keying_calls")

    def restore(self) -> None:
        """Put every original object back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def targets(self) -> list[tuple[object, str, object]]:
        """``(owner, attr, original)`` of every installed patch."""
        return list(self._patches)

    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric of one traced region of ``wall_s``, but
        ``trace_overhead_s``, which needs the untraced processes."""
        out: dict[str, float] = dict(self.seconds)
        out.update(self.counts)
        out["frameworks.execute_s"] = sum(
            self.seconds[f"algorithms.{name}_s"] for name in ALGORITHMS)
        calls = self.counts["store.load_trace_calls"]
        out["store.trace_replay_ratio"] = (
            self.counts["store.trace_hits"] / calls if calls else 0.0)
        out["experiments.unattributed_s"] = wall_s - self.top_level_s
        return out


def unrestored(patches: list[tuple[object, str, object]]) -> list[str]:
    """Names among ``patches`` whose owner no longer holds the original."""
    out = []
    for owner, attr, original in patches:
        current = owner.get(attr) if isinstance(owner, dict) else owner.__dict__.get(attr)
        if current is not original:
            out.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr}")
    return out


def _bundle_arrays(args, kwargs) -> dict:
    """The ``arrays`` argument of ``ArtifactCache.store(self, kind, key, arrays)``."""
    return kwargs["arrays"] if "arrays" in kwargs else args[3]


def _price_trace(args, kwargs):
    """The ``trace`` argument of ``FrameworkModel.price(self, trace, ...)``."""
    return kwargs["trace"] if "trace" in kwargs else args[1]


def check_accounting(tracer: LayerTracer, wall_s: float) -> list[str]:
    """Problems with one traced region's books (empty when they balance)."""
    problems = []
    self_sum = sum(tracer.seconds.values())
    if abs(self_sum - tracer.top_level_s) > 1e-6 * max(1.0, wall_s):
        problems.append(
            f"layer self times sum to {self_sum:.6f}s but top-level calls "
            f"took {tracer.top_level_s:.6f}s")
    if tracer.top_level_s > wall_s:
        problems.append(
            f"top-level calls took {tracer.top_level_s:.6f}s, more than the "
            f"{wall_s:.6f}s traced wall time")
    if tracer._nested:
        problems.append(f"{len(tracer._nested)} traced call(s) never returned")
    return problems
