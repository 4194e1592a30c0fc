"""The benchmark's three workloads, run one phase per fresh process.

    python3 perfbench/workloads.py setup --workload W --seed N --base DIR --out FILE
    python3 perfbench/workloads.py timed --workload W --seed N --base DIR --dir DIR --out FILE [--trace]

``setup`` builds the warm state a workload needs under ``--base``;
``timed`` runs the workload's timed region once in a fresh process, then
checks its outputs, and writes one JSON object to ``--out``.
``perfbench/run.py`` drives both; run them by hand only to debug a phase.

Workloads (all on the ``vectorized`` engine, ``jobs=1``, one thread):

* ``table3-cold`` — the Table III matrix (8 stand-in graphs x 8
  algorithms x ligra/polymer/graphgrind x original/vebo: 384 cells in 128
  execution groups) through ``run_matrix`` from an empty cache into a
  fresh results store.  A user's first run: every layer works, mostly
  the engine.
* ``table3-reprice`` — the same matrix on all three machines (1,152
  cells) priced with ``replay_only=True`` from the trace store that the
  setup's executing sweep filled.  Almost pure pricing; the engine never
  runs.
* ``powerlaw-traces`` — the ``traces build`` flow on ``powerlaw`` at
  scale 1: load the graph the setup built, compute the original and vebo
  orderings cold, and run and persist 16 executions.  The engine and the
  ordering relabel on one large graph; no pricing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import sys
import time
import traceback
from pathlib import Path

import layers
from layers import ALGORITHMS

HERE = Path(__file__).resolve().parent

GRAPHS = ("twitter", "friendster", "rmat", "powerlaw",
          "orkut", "livejournal", "yahoo", "usaroad")
FRAMEWORKS = ("ligra", "polymer", "graphgrind")
ORDERINGS = ("original", "vebo")
MACHINES = ("paper-xeon", "big-numa", "laptop")
SETUP_MACHINE = "paper-xeon"
ALGO_KWARGS = {"PR": {"num_iterations": 10}, "BP": {"num_iterations": 10}}
TABLE3_SCALE = 0.2
POWERLAW_SCALE = 1.0
BACKEND = "vectorized"
PARTITIONS = 384

#: The seed the pinned digests in ``pins.json`` were computed with (the
#: datasets' own default seed).
PIN_SEED = 12345
PINS = HERE / "pins.json"

WORKLOADS = ("table3-cold", "table3-reprice", "powerlaw-traces")
#: Work items one timed region attempts: cells for the sweeps,
#: executions for ``powerlaw-traces``.
ATTEMPTED = {
    "table3-cold": len(GRAPHS) * len(ALGORITHMS) * len(FRAMEWORKS) * len(ORDERINGS),
    "table3-reprice": len(GRAPHS) * len(ALGORITHMS) * len(FRAMEWORKS)
    * len(ORDERINGS) * len(MACHINES),
    "powerlaw-traces": len(ALGORITHMS) * len(ORDERINGS),
}
EXECUTION_GROUPS = len(GRAPHS) * len(ALGORITHMS) * len(ORDERINGS)


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------

def result_payload(result) -> dict:
    """Every modeled field of a cell.  ``ordering_seconds`` is left out: it
    is the wall-clock time of the ordering build, different on every cold
    run."""
    payload = result.to_dict()
    payload.pop("ordering_seconds")
    return payload


def result_digest(result) -> str:
    blob = json.dumps(result_payload(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def cell_label(result) -> str:
    return f"{result.graph}/{result.framework}/{result.ordering}/{result.algorithm}@{result.machine}"


def trace_digest(trace, iterations: int) -> str:
    """Bitwise identity of an execution: its metadata and every record's
    ``record_fingerprint``."""
    from repro.frameworks.trace import record_fingerprint

    h = hashlib.sha256()
    h.update(f"{trace.algorithm}\0{trace.graph_name}\0{trace.num_partitions}\0"
             f"{int(iterations)}\0{len(trace.records)}".encode())
    for rec in trace.records:
        h.update(hashlib.sha256(record_fingerprint(rec)).digest())
    return h.hexdigest()[:20]


def load_pins(workload: str) -> dict[str, str]:
    """Pinned default-seed digests of ``workload``.  The cold sweep's cells
    are the reprice's ``paper-xeon`` cells, so they share one table."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    if workload == "powerlaw-traces":
        return pins["powerlaw-traces"]
    cells = pins["table3"]
    if workload == "table3-cold":
        return {k: v for k, v in cells.items() if k.endswith("@" + SETUP_MACHINE)}
    return cells


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def _matrix_kwargs(seed: int) -> dict:
    return dict(
        params={"scale": TABLE3_SCALE, "seed": seed},
        algo_kwargs=ALGO_KWARGS,
        backend=BACKEND,
        jobs=1,
    )


def setup_reprice(seed: int, base: Path) -> dict:
    """The executing sweep that fills the trace store a reprice replays."""
    from repro.experiments import run_matrix
    from repro.store import ArtifactCache

    stats: dict = {}
    run_matrix(GRAPHS, ALGORITHMS, FRAMEWORKS, ORDERINGS,
               machines=(SETUP_MACHINE,), cache=ArtifactCache(base / "cache"),
               store=base / "setup.jsonl", stats=stats, **_matrix_kwargs(seed))
    if stats["executed"] != EXECUTION_GROUPS:
        raise AssertionError(f"setup sweep executed {stats['executed']} groups, "
                             f"expected {EXECUTION_GROUPS}")
    return {"stats": stats}


def setup_powerlaw(seed: int, base: Path) -> dict:
    """Build the powerlaw graph into the base cache."""
    from repro import store

    graph = store.load_graph("powerlaw", cache=store.ArtifactCache(base / "cache"),
                             scale=POWERLAW_SCALE, seed=seed)
    return {"vertices": graph.num_vertices, "edges": graph.num_edges}


SETUPS = {"table3-reprice": setup_reprice, "powerlaw-traces": setup_powerlaw}


def prepare_region(workload: str, base: Path, rep: Path):
    """Start-up work of a timed process before its region: returns the
    artifact cache the region runs against."""
    from repro.store import ArtifactCache

    if workload == "table3-cold":
        cache = ArtifactCache(rep / "cache")
    elif workload == "table3-reprice":
        cache = ArtifactCache(base / "cache")      # read-only during the region
    else:
        # The region writes orderings and traces next to the graph, so it
        # gets its own cache holding only a copy of the setup's graph.
        shutil.copytree(base / "cache" / "graph", rep / "cache" / "graph")
        cache = ArtifactCache(rep / "cache")
    return cache


def region_table3(workload: str, seed: int, cache, rep: Path) -> dict:
    from repro.experiments import run_matrix

    stats: dict = {}
    machines = (SETUP_MACHINE,) if workload == "table3-cold" else MACHINES
    results = run_matrix(GRAPHS, ALGORITHMS, FRAMEWORKS, ORDERINGS,
                         machines=machines, cache=cache, store=rep / "results.jsonl",
                         replay_only=workload == "table3-reprice", stats=stats,
                         **_matrix_kwargs(seed))
    return {"results": results, "stats": stats}


def region_powerlaw(seed: int, cache) -> dict:
    """``traces build --graphs powerlaw --scale 1 --iterations 10
    --algorithms <all 8> --backend vectorized``, as the CLI runs it."""
    from repro import store
    from repro.experiments import execute, prepare

    graph = store.load_graph("powerlaw", cache=cache, scale=POWERLAW_SCALE, seed=seed)
    executions = {}
    for ordering in ORDERINGS:
        prep = prepare(graph, ordering, PARTITIONS, cache=cache)
        for algo in ALGORITHMS:
            executions[f"{ordering}/{algo}"] = execute(
                graph, algo, prepared=prep, num_partitions=PARTITIONS,
                traces=cache, backend=BACKEND, **ALGO_KWARGS.get(algo, {}))
    return {"graph": graph, "executions": executions}


# ----------------------------------------------------------------------
# checks (outside the timed region)
# ----------------------------------------------------------------------

def check_table3(workload: str, out: dict, rep: Path, base: Path, errors: list) -> dict:
    """Per-cell digests, the run's contract and the persisted store."""
    from repro.experiments import ResultsStore

    stats = out["stats"]
    want = {"cells": ATTEMPTED[workload], "resumed": 0}
    if workload == "table3-cold":
        want.update(groups=EXECUTION_GROUPS, executed=EXECUTION_GROUPS, replayed=0)
    else:
        # A reused results store would resume every cell and price nothing.
        want.update(groups=EXECUTION_GROUPS, executed=0, replayed=EXECUTION_GROUPS)
    for key, value in want.items():
        if stats.get(key) != value:
            errors.append(f"contract: stats[{key!r}] = {stats.get(key)}, expected {value}")

    digests = {cell_label(r): result_digest(r) for r in out["results"]}
    if len(digests) != ATTEMPTED[workload]:
        errors.append(f"{len(digests)} distinct cells, expected {ATTEMPTED[workload]}")
    bad: set[str] = set()
    stored = {cell_label(r): r for r in ResultsStore(rep / "results.jsonl").load()}
    for label, result in ((cell_label(r), r) for r in out["results"]):
        if label not in stored or stored[label].to_dict() != result.to_dict():
            bad.add(label)
    if bad:
        errors.append(f"{len(bad)} cell(s) missing or different in the results store")
    if workload == "table3-reprice":
        # On any seed: the replayed paper-xeon cells equal the executing
        # sweep's cells byte for byte (ordering_seconds included — the
        # cached orderings replay their recorded build time).
        setup = {cell_label(r): _result_line(r) for r in ResultsStore(base / "setup.jsonl").load()}
        mismatched = {label for label, r in ((cell_label(r), r) for r in out["results"])
                      if r.machine == SETUP_MACHINE and setup.get(label) != _result_line(r)}
        if len(setup) != ATTEMPTED["table3-cold"] or mismatched:
            errors.append(f"{len(mismatched)} paper-xeon cell(s) differ from the setup "
                          f"sweep ({len(setup)} setup cells)")
        bad |= mismatched
    return {"digests": digests, "bad": sorted(bad)}


def _result_line(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))


def check_powerlaw(out: dict, cache, errors: list) -> dict:
    """Per-execution digests, the 16 stored traces, and their round trip."""
    from repro.store import load_trace, trace_key

    executions = out["executions"]
    bad: set[str] = set()
    digests = {}
    for label, ex in executions.items():
        digests[label] = trace_digest(ex.trace, ex.iterations)
        if ex.replayed:
            bad.add(label)
            errors.append(f"contract: {label} replayed a stored trace instead of executing")
    stored = [key for kind, key, _ in cache.entries() if kind == "trace"]
    if len(stored) != ATTEMPTED["powerlaw-traces"]:
        errors.append(f"contract: {len(stored)} stored traces, expected "
                      f"{ATTEMPTED['powerlaw-traces']}")
    for label, ex in executions.items():
        ordering, algo = label.split("/")
        key = trace_key(out["graph"], algo, ordering, PARTITIONS, ALGO_KWARGS.get(algo, {}))
        back = load_trace(key, cache=cache)
        if back is None or trace_digest(back.trace, back.iterations) != digests[label]:
            bad.add(label)
    if len(bad) > 0:
        errors.append(f"{len(bad)} execution(s) not stored or not round-tripping")
    return {"digests": digests, "bad": sorted(bad)}


def compare_pins(workload: str, digests: dict, errors: list) -> set[str]:
    pins = load_pins(workload)
    wrong = {label for label, d in digests.items() if pins.get(label) != d}
    wrong |= set(pins) - set(digests)
    if wrong:
        errors.append(f"{len(wrong)} result(s) differ from the pinned seed-{PIN_SEED} digests")
    return wrong


# ----------------------------------------------------------------------
# process phases
# ----------------------------------------------------------------------

def peak_rss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def reset_peak_rss() -> None:
    """Reset VmHWM to the current RSS, so the peak covers only what follows."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
        fh.write("5")


def run_timed(workload: str, seed: int, base: Path, rep: Path, trace: bool,
              pins: bool = True) -> dict:
    """One timed region in this (fresh) process, then its checks."""
    cache = prepare_region(workload, base, rep)
    tracer = None
    if trace:
        tracer = layers.LayerTracer()
        tracer.install()
    gc.collect()
    reset_peak_rss()
    t_start = time.monotonic()   # system-wide clock: run.py times start-up with it
    try:
        if workload == "powerlaw-traces":
            out = region_powerlaw(seed, cache)
        else:
            out = region_table3(workload, seed, cache, rep)
        wall_s = time.monotonic() - t_start
        peak = peak_rss_mb()
    finally:
        if tracer is not None:
            patches = tracer.targets()
            tracer.restore()

    errors: list[str] = []
    if workload == "powerlaw-traces":
        checked = check_powerlaw(out, cache, errors)
    else:
        checked = check_table3(workload, out, rep, base, errors)
    bad = set(checked["bad"])
    if pins and seed == PIN_SEED:
        bad |= compare_pins(workload, checked["digests"], errors)
    report = {
        "t_start": t_start,
        "wall_s": wall_s,
        "peak_rss_mb": peak,
        "bad": sorted(bad),
        "digests": checked["digests"],
        "errors": errors,
    }
    if tracer is not None:
        errors.extend(layers.check_accounting(tracer, wall_s))
        errors.extend(f"{name} was not restored" for name in layers.unrestored(patches))
        report["layers"] = tracer.metrics(wall_s)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("phase", choices=("setup", "timed"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--base", type=Path, required=True)
    parser.add_argument("--dir", type=Path, default=None)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--no-pins", dest="pins", action="store_false",
                        help="skip the pinned-digest check (used to write the pins)")
    args = parser.parse_args(argv)
    try:
        if args.phase == "setup":
            report = SETUPS[args.workload](args.seed, args.base)
        else:
            report = run_timed(args.workload, args.seed, args.base, args.dir,
                               args.trace, args.pins)
    except Exception:  # written to --out; run.py counts the process as failed
        report = {"error": traceback.format_exc()}
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0 if "error" not in report else 1


if __name__ == "__main__":
    sys.exit(main())
