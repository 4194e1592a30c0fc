"""Table III — runtime matrix: 3 frameworks x 4 orderings x algorithms x
graphs, plus the Section V-A headline speedups.

The paper's headline: averaged over 8 algorithms and 7 power-law graphs,
VEBO beats each system's default configuration by 1.09x (Ligra), 1.41x
(Polymer) and 1.65x (GraphGrind), and statically scheduled systems benefit
more than dynamically scheduled ones.  We run a scaled sweep (3 graphs x 4
algorithms keeps the harness in the minutes range; the full suite is the
same call with more names) and check the shape:

* VEBO's geomean speedup is positive on every framework;
* static-scheduled personalities (Polymer, GraphGrind) gain more than
  Ligra;
* RCM/Gorder do not deliver VEBO's balance benefit on the static systems.

The sweep goes through the parallel resumable orchestrator
(:mod:`repro.experiments.sweep`) with a persistent results store under
the artifact cache root, so a second harness run replays every cell from
disk and recomputes nothing.  ``REPRO_SWEEP_JOBS`` overrides the worker
count.  Cell keys hash the cell's inputs plus
:data:`repro.experiments.results.RESULTS_KEY_VERSION` — bump that (or
run with ``REPRO_CACHE_OFF=1``) when a pricing-model change must
invalidate previously persisted numbers.
"""

import os

import pytest

from repro import store as repro_store
from repro.experiments import ResultsStore, expand_matrix, run_matrix
from repro.frameworks.backends import resolve_backend
from repro.metrics import (
    format_table,
    geometric_mean,
    ordering_speedups,
    runtime_matrix,
)

from conftest import BENCH_SCALE, print_header

GRAPHS = ["twitter", "livejournal", "powerlaw"]
ALGOS = ["PR", "BFS", "PRD", "BF"]
ORDERINGS = ["original", "rcm", "vebo"]
FRAMEWORKS = ["ligra", "polymer", "graphgrind"]
#: Engine backend executing every cell: ``REPRO_BACKEND``, else the
#: default.  Backends are conformance-tested bit-identical
#: (tests/frameworks/test_backend_conformance.py), so the persisted store
#: and every assertion below are backend-independent — the CI matrix
#: proves it by running this harness under each shipped backend.
BACKEND = resolve_backend()


def results_store_path():
    cache = repro_store.resolve_cache(None)
    if cache is None:
        return None
    return cache.root / "results" / "table3.jsonl"


def full_sweep():
    cache = repro_store.resolve_cache(None)
    jobs = int(os.environ.get("REPRO_SWEEP_JOBS", min(2, os.cpu_count() or 1)))
    return run_matrix(
        GRAPHS, ALGOS, FRAMEWORKS, ORDERINGS,
        params={"scale": BENCH_SCALE},
        algo_kwargs={"PR": {"num_iterations": 5}},
        backend=BACKEND,
        jobs=jobs,
        store=results_store_path(),
        cache=cache if cache is not None else False,
    )


@pytest.fixture(scope="module")
def sweep(request):
    return full_sweep()


def test_table3_matrix(sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)  # timing done in sweep
    rows = []
    for r in sweep:
        rows.append(
            {
                "Graph": r.graph,
                "Algo": r.algorithm,
                "Framework": r.framework,
                "Ordering": r.ordering,
                "Seconds": r.seconds,
            }
        )
    print_header(f"Table III: runtime matrix (simulated seconds; {BACKEND} backend)")
    print(format_table(rows))
    assert all(r.seconds > 0 for r in sweep)


def test_headline_speedups(sweep, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by = {(r.framework, r.graph, r.algorithm, r.ordering): r.seconds for r in sweep}
    speedups = {}
    for fw in FRAMEWORKS:
        ratios = []
        for gname in set(r.graph for r in sweep):
            for a in ALGOS:
                o = by[(fw, gname, a, "original")]
                v = by[(fw, gname, a, "vebo")]
                ratios.append(o / v)
        speedups[fw] = geometric_mean(ratios)

    print_header("Section V-A headline: VEBO geomean speedup per framework")
    print("paper:    ligra 1.09x | polymer 1.41x | graphgrind 1.65x")
    print(
        "measured: "
        + " | ".join(f"{fw} {speedups[fw]:.2f}x" for fw in FRAMEWORKS)
    )

    # VEBO helps on average everywhere...
    for fw in FRAMEWORKS:
        assert speedups[fw] > 0.95, (fw, speedups[fw])
    # ...and statically scheduled systems benefit more than Ligra.
    assert speedups["polymer"] > speedups["ligra"]
    assert speedups["graphgrind"] > speedups["ligra"]


def test_rcm_weaker_than_vebo_on_static_systems(sweep, benchmark):
    """Section V-A: Gorder/RCM optimize locality, not balance, so they do
    not match VEBO on the statically scheduled systems."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    by = {(r.framework, r.graph, r.algorithm, r.ordering): r.seconds for r in sweep}
    for fw in ("polymer", "graphgrind"):
        ratios = []
        for gname in set(r.graph for r in sweep):
            for a in ALGOS:
                ratios.append(by[(fw, gname, a, "rcm")] / by[(fw, gname, a, "vebo")])
        assert geometric_mean(ratios) > 1.0, fw


def test_tables_rebuild_from_disk(sweep, benchmark):
    """The persisted results store replays the whole matrix without
    re-running anything: same cells, same seconds, same headline."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    path = results_store_path()
    if path is None:
        pytest.skip("artifact cache disabled; sweep ran without a store")
    wanted = {
        c.key()
        for c in expand_matrix(
            GRAPHS, ALGOS, FRAMEWORKS, ORDERINGS,
            params={"scale": BENCH_SCALE},
            algo_kwargs={"PR": {"num_iterations": 5}},
        )
    }
    records = ResultsStore(path).records()
    replayed = [r for k, r in records.items() if k in wanted]
    assert len(replayed) == len(wanted)
    live = runtime_matrix(sweep)
    disk = runtime_matrix(replayed)
    for row, cols in live.items():
        for col, seconds in cols.items():
            assert disk[row][col] == seconds
    live_gain = ordering_speedups(sweep)
    disk_gain = ordering_speedups(replayed)
    for fw in FRAMEWORKS:
        assert disk_gain[fw] == live_gain[fw]
