"""Shared infrastructure for the per-table / per-figure benchmark harness.

Each ``test_<exp>`` module regenerates one table or figure of the paper:
it runs the relevant workload through the library, prints the same
rows/series the paper reports, and asserts the qualitative *shape* (who
wins, roughly by what factor).  Graphs are generated once per session at a
scale that keeps the full harness in the minutes range.

Run with::

    pytest benchmarks/ --benchmark-only -s

Graphs come through the :mod:`repro.store` artifact cache, so everything
after the first harness run starts warm (set ``REPRO_CACHE_OFF=1`` to
force regeneration, ``REPRO_CACHE_DIR`` to relocate the cache).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import store

#: Scale multiplier for the stand-in datasets used by the harness.
BENCH_SCALE = 0.4

_cache: dict[tuple[str, float], object] = {}


def load_cached(name: str, scale: float = BENCH_SCALE):
    key = (name, scale)
    if key not in _cache:
        _cache[key] = store.load_graph(name, scale=scale)
    return _cache[key]


@pytest.fixture(scope="session")
def twitter():
    return load_cached("twitter")


@pytest.fixture(scope="session")
def friendster():
    return load_cached("friendster")


@pytest.fixture(scope="session")
def usaroad():
    return load_cached("usaroad")


def print_header(title: str) -> None:
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


# ----------------------------------------------------------------------
# Shared by the warm-Table-III speedup gates (test_backend_speedup,
# test_trace_dedup_speedup): one definition of the matrix and the timing
# convention, so the two gates always measure the same workload.
# ----------------------------------------------------------------------

POWERLAW_GRAPHS = [
    "twitter", "friendster", "rmat", "powerlaw", "orkut", "livejournal", "yahoo",
]
ALL_GRAPHS = POWERLAW_GRAPHS + ["usaroad"]
TABLE3_ALGOS = ["PR", "BFS", "PRD", "BF", "CC", "BC", "SPMV", "BP"]
TABLE3_FRAMEWORKS = ["ligra", "polymer", "graphgrind"]
TABLE3_ORDERINGS = ["original", "vebo"]
TABLE3_ALGO_KWARGS = {"PR": {"num_iterations": 10}, "BP": {"num_iterations": 10}}


def per_cell_sweep(graph, *, cache=None, backend=None):
    """The warm Table III matrix on ``graph`` with one execution per cell.

    The baseline both speedup gates time: ``prepare`` once per ordering,
    shared across frameworks, then one ``run`` per cell — a fresh
    execution that never touches the trace store.  ``cache`` is the
    ordering cache (``False`` re-runs every ordering); results come back
    in ``expand_matrix`` order.
    """
    from repro.experiments import prepare, run
    from repro.frameworks.personality import ACCOUNTING_CHUNKS

    prepared: dict = {}
    results = []
    for fw in TABLE3_FRAMEWORKS:
        for ordering in TABLE3_ORDERINGS:
            if ordering not in prepared:
                prepared[ordering] = prepare(
                    graph, ordering, ACCOUNTING_CHUNKS, cache=cache
                )
            for algo in TABLE3_ALGOS:
                results.append(run(
                    graph, algo, fw, ordering=ordering,
                    prepared=prepared[ordering], backend=backend,
                    **TABLE3_ALGO_KWARGS.get(algo, {}),
                ))
    return results


def timed_best(fn, reps: int):
    """Best-of-``reps`` wall-clock of ``fn()`` (damps scheduler noise)."""
    import time

    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best
