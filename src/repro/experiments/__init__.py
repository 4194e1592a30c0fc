"""Experiment orchestration: configuration runner, sweeps and results.

* :mod:`repro.experiments.runner` — one (graph, ordering, framework,
  algorithm) cell end to end (``run``), split into ``execute`` (produce
  or replay a :class:`TraceExecution` via the persistent trace store)
  and ``price`` (one framework personality on one machine model);
* :mod:`repro.experiments.sweep` — the parallel, resumable orchestrator
  that groups cells by execution identity (one execution, pricing fanned
  out per (framework, machine) pair — ``replay_only`` turns it into the
  zero-execution ``sweep reprice`` engine) and fans the matrix out over
  a process pool;
* :mod:`repro.experiments.results` — the append-only on-disk results
  store that makes sweeps resumable and tables rebuildable from disk.
"""

from repro.experiments.results import ResultsStore, result_cell_key
from repro.experiments.runner import (
    ExperimentResult,
    PreparedGraph,
    TraceExecution,
    execute,
    prepare,
    price,
    run,
)
from repro.experiments.sweep import (
    SweepCell,
    expand_matrix,
    group_cells,
    run_cells,
    run_matrix,
)

__all__ = [
    "ExperimentResult",
    "PreparedGraph",
    "ResultsStore",
    "SweepCell",
    "TraceExecution",
    "execute",
    "expand_matrix",
    "group_cells",
    "prepare",
    "price",
    "result_cell_key",
    "run",
    "run_cells",
    "run_matrix",
]
