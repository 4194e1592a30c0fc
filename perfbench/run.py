"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from a checkout of the repository.  Each timed region runs in a fresh
Python process with a fresh artifact cache under ``.perfbench-work/`` (in
the checkout, removed on exit), every inherited ``REPRO_*`` variable
cleared and one thread per numeric library.  Workloads that need warm
state build it first in their own setup processes (``SETUPS_PER_RUN``);
the timed processes take turns on the copies.  Timed processes repeat
while the next one is expected to end within ``--seconds`` of the run's
start (at least three), and stop at the first that fails.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
timed processes:

* ``wall_s`` — wall-clock time of the timed region;
* ``peak_rss_mb`` — peak resident memory of the timed region only
  (VmHWM, reset through ``/proc/self/clear_refs`` after start-up);
* ``setup_s`` — everything before the region: the median setup process
  (none for ``table3-cold``) plus the median start-up of a timed process
  (interpreter, imports and, for ``powerlaw-traces``, the copy of the
  setup's graph).

With ``--trace 1`` timed processes alternate traced and untraced, and the
metrics are the per-layer ones of ``layers.py`` (medians over the traced
processes) plus ``trace_overhead_s``, the median traced minus the median
untraced wall time.

``python3 perfbench/run.py --write-pins`` recomputes ``pins.json``, the
seed-12345 digests every run on that seed checks its outputs against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

#: Warm-state builds per run; the timed processes alternate between them.
#: The reprice's setup is a whole executing sweep, so it is built once and
#: the run's time goes to timed processes instead: pricing is the most
#: jittery region on a shared host and needs the most samples.
SETUPS_PER_RUN = {"table3-cold": 0, "table3-reprice": 1, "powerlaw-traces": 2}
MIN_TIMED = 3
#: A run must end within 180 s; stop waiting for a child well before that.
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(run_dir: Path) -> dict[str, str]:
    """The environment of every child: no inherited ``REPRO_*`` setting
    (backend, mmap, obs, cache switches, parallel sizing), the program from
    this checkout, and every cache or temporary file inside the run dir."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for name in ("default-cache", "xdg", "tmp"):
        (run_dir / name).mkdir(exist_ok=True)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        REPRO_CACHE_DIR=str(run_dir / "default-cache"),
        XDG_CACHE_HOME=str(run_dir / "xdg"),
        TMPDIR=str(run_dir / "tmp"),
    )
    return env


def run_child(phase: str, workload: str, seed: int, base: Path, env: dict,
              deadline: float, rep: Path | None = None, trace: bool = False,
              pins: bool = True) -> dict:
    """Run one phase in a fresh process; return its JSON report."""
    out = base.parent / f"{phase}-{base.name}-{rep.name if rep else 'setup'}.json"
    cmd = [sys.executable, str(HERE / "workloads.py"), phase, "--workload", workload,
           "--seed", str(seed), "--base", str(base), "--out", str(out)]
    if rep is not None:
        cmd += ["--dir", str(rep)]
    if trace:
        cmd.append("--trace")
    if not pins:
        cmd.append("--no-pins")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {phase} phase")
    with open(base.parent / "stderr.log", "ab") as err:
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=str(ROOT))
        try:
            proc.wait(timeout=timeout)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    try:
        report = json.loads(out.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        tail = (base.parent / "stderr.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"{phase} process exited with {proc.returncode} and no "
                         f"report:\n{tail}") from None
    return report


def measure(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path,
            pins: bool = True) -> tuple[list[float], list[dict]]:
    """Set up, then run timed processes until ``seconds`` have passed."""
    t_begin = time.monotonic()
    deadline = t_begin + DEADLINE_S
    env = child_env(run_dir)
    setup_s: list[float] = []
    bases = []
    for i in range(max(1, SETUPS_PER_RUN[workload])):
        base = run_dir / f"base{i}"
        base.mkdir()
        bases.append(base)
        if SETUPS_PER_RUN[workload]:
            t0 = time.monotonic()
            report = run_child("setup", workload, seed, base, env, deadline)
            setup_s.append(time.monotonic() - t0)
            if "error" in report:
                raise BenchError(f"setup failed:\n{report['error']}")
    reps: list[dict] = []
    while True:
        i = len(reps)
        traced = trace and i % 2 == 0
        base = bases[i % len(bases)]
        rep = run_dir / f"rep{i}"
        rep.mkdir()
        t_spawn = time.monotonic()
        report = run_child("timed", workload, seed, base, env, deadline, rep=rep,
                           trace=traced, pins=pins)
        report["traced"] = traced
        if "error" not in report:
            report["startup_s"] = report["t_start"] - t_spawn
            print(f"timed process {i}{' (traced)' if traced else ''}: wall "
                  f"{report['wall_s']:.3f}s, peak {report['peak_rss_mb']:.1f}MB, "
                  f"start-up {report['startup_s']:.3f}s", file=sys.stderr)
        shutil.rmtree(rep)
        report["process_s"] = time.monotonic() - t_spawn
        reps.append(report)
        if "error" in report:
            return setup_s, reps
        next_end = time.monotonic() - t_begin + statistics.median(
            r["process_s"] for r in reps)
        if len(reps) >= MIN_TIMED and next_end > seconds:
            return setup_s, reps


def verdict(workload: str, reps: list[dict]) -> tuple[bool, int, int, list[str]]:
    """``(correct, attempted, failed, errors)`` over every timed process:
    each one's own checks, plus agreement with the first good process."""
    errors: list[str] = []
    attempted = failed = 0
    reference = None
    for i, rep in enumerate(reps):
        attempted += workloads.ATTEMPTED[workload]
        if "error" in rep:
            failed += workloads.ATTEMPTED[workload]
            errors.append(f"timed process {i} raised:\n{rep['error']}")
            continue
        errors.extend(f"timed process {i}: {e}" for e in rep["errors"])
        bad = set(rep["bad"])
        if reference is None:
            reference = rep["digests"]
        else:
            differ = {k for k in set(reference) | set(rep["digests"])
                      if reference.get(k) != rep["digests"].get(k)}
            if differ:
                errors.append(f"timed process {i}: {len(differ)} result(s) differ "
                              f"from timed process 0")
            bad |= differ
        failed += len(bad)
    return not errors and failed == 0, attempted, failed, errors


def end_to_end(setup_s: list[float], good: list[dict]) -> dict[str, tuple[float, str]]:
    startup = statistics.median(r["startup_s"] for r in good)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in good), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MB"),
        "setup_s": ((statistics.median(setup_s) if setup_s else 0.0) + startup, "s"),
    }


def per_layer(good: list[dict], errors: list[str]) -> dict[str, tuple[float, str]]:
    traced = [r for r in good if r["traced"]]
    untraced = [r for r in good if not r["traced"]]
    if len(traced) < 2 or not untraced:
        raise BenchError("a traced run needs two traced and one untraced process")
    out = {"trace_overhead_s": (statistics.median(r["wall_s"] for r in traced)
                                - statistics.median(r["wall_s"] for r in untraced), "s")}
    for name, unit in layers.PER_LAYER.items():
        if name in out:
            continue
        values = [r["layers"][name] for r in traced]
        if unit == "s":
            out[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) != 1:
            errors.append(f"{name} differs between traced processes: {values}")
        out[name] = (values[0], unit)
    return out


def write_pins(run_root: Path) -> None:
    """Recompute ``pins.json`` from one run of each pinned workload."""
    pins = {}
    for workload, section in (("table3-reprice", "table3"), ("powerlaw-traces", "powerlaw-traces")):
        run_dir = Path(tempfile.mkdtemp(prefix="pins-", dir=run_root))
        _, reps = measure(workload, workloads.PIN_SEED, 0.0, False, run_dir, pins=False)
        correct, _, _, errors = verdict(workload, reps)
        if not correct:
            raise BenchError("\n".join(errors))
        pins[section] = dict(sorted(reps[0]["digests"].items()))
    workloads.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n",
                              encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.PIN_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_pins and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'repro'}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload or 'pins'}-", dir=WORK))
    try:
        if args.write_pins:
            write_pins(run_dir)
            return 0
        setup_s, reps = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                run_dir)
        correct, attempted, failed, errors = verdict(args.workload, reps)
        good = [r for r in reps if "error" not in r]
        if not good:
            raise BenchError("every timed process failed:\n" + "\n".join(errors))
        metrics = per_layer(good, errors) if args.trace else end_to_end(setup_s, good)
        correct = correct and not errors
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it
    for line in errors:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
