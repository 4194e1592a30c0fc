"""Determinism, equivalence and resume tests for the parallel sweep.

The acceptance bar: the orchestrator's results are byte-identical to a
per-cell ``run()`` (the oracle, :func:`oracles.per_cell_results`) at any
``jobs`` count, and a resumed interrupted sweep completes while
re-running zero already-persisted cells.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import store as repro_store
from repro.experiments import (
    ResultsStore,
    expand_matrix,
    run_cells,
    run_matrix,
)
from repro.store import ArtifactCache

from oracles import per_cell_results

REPO_ROOT = Path(__file__).resolve().parents[2]

SCALE = 0.04
ALGOS = ["PR", "BFS"]
ORDERINGS = ["original", "vebo"]
FRAMEWORKS = ["ligra", "polymer", "graphgrind"]
ALGO_KWARGS = {"PR": {"num_iterations": 2}}


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One warm artifact cache shared by every test in this module, so
    orderings replay identically (including their recorded seconds) on
    the serial and parallel paths."""
    return ArtifactCache(tmp_path_factory.mktemp("artifact-cache"))


def serial_sweep(datasets, cache):
    cells = expand_matrix(
        datasets, ALGOS, FRAMEWORKS, ORDERINGS,
        params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
    )
    return per_cell_results(cells, cache)


def parallel_sweep(datasets, cache, jobs, store=None, resume=True):
    return run_matrix(
        datasets, ALGOS, FRAMEWORKS, ORDERINGS,
        params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
        jobs=jobs, store=store, resume=resume, cache=cache,
    )


def assert_sweeps_identical(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert (x.graph, x.algorithm, x.framework, x.ordering) == (
            y.graph, y.algorithm, y.framework, y.ordering
        )
        assert x.seconds == y.seconds
        assert x.iterations == y.iterations
        assert x.ordering_seconds == y.ordering_seconds
        assert np.array_equal(x.estimate.per_iteration, y.estimate.per_iteration)


class TestSerialParallelEquivalence:
    def test_full_matrix_matches_serial(self, cache):
        """The 8-graph x 3-framework x 2-ordering x 2-algorithm matrix:
        ``jobs=1`` and ``jobs=4`` both reproduce the serial loop exactly."""
        datasets = repro_store.available_datasets()[:8]
        assert len(datasets) == 8
        serial = serial_sweep(datasets, cache)
        assert len(serial) == 8 * 3 * 2 * 2
        inline = parallel_sweep(datasets, cache, jobs=1)
        assert_sweeps_identical(serial, inline)
        pooled = parallel_sweep(datasets, cache, jobs=4)
        assert_sweeps_identical(serial, pooled)

    def test_expand_matrix_mirrors_serial_order(self):
        cells = expand_matrix(
            ["twitter", "orkut"], ["PR"], ["ligra", "polymer"], ["original", "vebo"]
        )
        labels = [c.label() for c in cells]
        assert labels == [
            "twitter/ligra/original/PR", "twitter/ligra/vebo/PR",
            "twitter/polymer/original/PR", "twitter/polymer/vebo/PR",
            "orkut/ligra/original/PR", "orkut/ligra/vebo/PR",
            "orkut/polymer/original/PR", "orkut/polymer/vebo/PR",
        ]

    def test_expand_matrix_rejects_unknown_names(self):
        from repro.errors import ResultsError

        for bad in (
            dict(datasets=["twiter"]),
            dict(algorithms=["NOPE"]),
            dict(frameworks=["galois"]),
            dict(orderings=["zorder"]),
        ):
            kwargs = dict(
                datasets=["twitter"], algorithms=["PR"],
                frameworks=["ligra"], orderings=["original"],
            )
            kwargs.update(bad)
            with pytest.raises(ResultsError, match="unknown"):
                expand_matrix(kwargs["datasets"], kwargs["algorithms"],
                              kwargs["frameworks"], kwargs["orderings"])


class TestResume:
    def test_interrupted_sweep_resumes_without_recompute(self, cache, tmp_path):
        """Persist a partial sweep, then re-invoke over the full matrix:
        every stored cell must be returned from disk (zero re-runs) and
        the completed store must match an uninterrupted run exactly."""
        out = tmp_path / "resume.jsonl"
        # "interrupt": only the ligra third of the matrix completed
        partial = run_matrix(
            ["twitter"], ALGOS, ["ligra"], ORDERINGS,
            params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
            jobs=1, store=out, cache=cache,
        )
        stored_before = ResultsStore(out).keys()
        assert len(stored_before) == len(partial) == 4

        computed, skipped = [], []

        def progress(cell, result, was_skipped):
            (skipped if was_skipped else computed).append(cell.key())

        full = run_matrix(
            ["twitter"], ALGOS, FRAMEWORKS, ORDERINGS,
            params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
            jobs=2, store=out, resume=True, cache=cache, progress=progress,
        )
        # zero already-persisted cells re-ran
        assert set(skipped) == stored_before
        assert not (set(computed) & stored_before)
        assert len(computed) == 8
        assert len(full) == 12
        # and the resumed result set equals a from-scratch sweep
        fresh = parallel_sweep(["twitter"], cache, jobs=1, store=None)
        assert_sweeps_identical(fresh, full)

    def test_resume_false_recomputes_but_appends(self, cache, tmp_path):
        out = tmp_path / "noresume.jsonl"
        first = run_matrix(
            ["twitter"], ["BFS"], ["ligra"], ["original"],
            params={"scale": SCALE}, jobs=1, store=out, cache=cache,
        )
        again = run_matrix(
            ["twitter"], ["BFS"], ["ligra"], ["original"],
            params={"scale": SCALE}, jobs=1, store=out, resume=False, cache=cache,
        )
        assert_sweeps_identical(first, again)
        # both runs appended; the store dedupes on read
        assert len(out.read_text().splitlines()) == 2
        assert len(ResultsStore(out)) == 1

    def test_failed_cell_persists_siblings_before_raising(self, cache, tmp_path, monkeypatch):
        """One bad cell must not discard completed siblings: everything
        that finished is on disk before the error propagates."""
        from repro.errors import ResultsError
        from repro.experiments import SweepCell

        out = tmp_path / "fail.jsonl"
        good = expand_matrix(
            ["twitter"], ALGOS, ["ligra"], ORDERINGS,
            params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
        )
        # a cell whose dataset params the registry rejects -> worker raises
        bad = SweepCell(
            dataset="twitter", algorithm="PR", framework="ligra",
            ordering="original", params={"scale": SCALE, "bogus": 1},
        )
        with pytest.raises(ResultsError, match="failed"):
            run_cells([*good, bad], jobs=2, store=out, cache=cache)
        good_keys = {c.key() for c in good}
        # whatever finished was persisted (never the failed cell), and the
        # resumed sweep completes the matrix from there
        assert ResultsStore(out).keys() <= good_keys
        assert bad.key() not in ResultsStore(out).keys()
        done = run_cells(good, jobs=2, store=out, cache=cache)
        assert len(done) == len(good)
        assert ResultsStore(out).keys() == good_keys

    def test_duplicate_cells_computed_once(self, cache):
        cells = expand_matrix(
            ["twitter"], ["BFS"], ["ligra"], ["original"], params={"scale": SCALE}
        )
        computed = []
        results = run_cells(
            cells * 3, jobs=1, cache=cache,
            progress=lambda c, r, s: computed.append(s),
        )
        assert len(results) == 3
        assert_sweeps_identical(results[:1], results[1:2])
        assert len(computed) == 1  # progress fires once per unique pending cell


class TestKillAndResumeCLI:
    """The smoke scenario from the issue: start ``sweep run``, kill it
    mid-flight, and prove ``--resume`` completes the matrix while
    re-running zero already-persisted cells (every key lands in the store
    exactly once across both invocations)."""

    MATRIX = [
        "--graphs", "twitter", "--algorithms", "PR,BFS",
        "--frameworks", "ligra,polymer,graphgrind",
        "--orderings", "original,vebo",
        "--scale", "0.1", "--iterations", "5",
    ]
    TOTAL = 1 * 2 * 3 * 2

    def _cli(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        return (
            [sys.executable, "-m", "repro.cli", "sweep", *extra],
            env,
        )

    @staticmethod
    def _valid_keys(path):
        keys = []
        if path.is_file():
            for line in path.read_text().splitlines():
                try:
                    keys.append(json.loads(line)["key"])
                except (json.JSONDecodeError, KeyError):
                    pass
        return keys

    def test_killed_sweep_resumes_with_zero_recompute(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        argv, env = self._cli(
            tmp_path, "run", *self.MATRIX, "--jobs", "1", "--out", str(out)
        )
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            # wait until some cells are persisted, then kill mid-sweep
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(self._valid_keys(out)) >= 2 or proc.poll() is not None:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()

        before = self._valid_keys(out)
        assert before, "sweep produced no results before the kill"
        assert len(set(before)) == len(before)

        argv, env = self._cli(
            tmp_path, "run", *self.MATRIX, "--jobs", "2",
            "--out", str(out), "--resume",
        )
        done = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=600
        )
        assert done.returncode == 0, done.stderr
        assert f"{len(before)} resumed from store" in done.stdout

        after = self._valid_keys(out)
        # every cell present, and none computed twice: the killed run's
        # keys appear exactly once in the final file
        assert len(set(after)) == self.TOTAL
        assert len(after) == self.TOTAL
        assert set(before) <= set(after)

    def test_run_refuses_nonempty_store_without_resume(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        small = ["--graphs", "twitter", "--algorithms", "BFS",
                 "--frameworks", "ligra", "--orderings", "original",
                 "--scale", "0.04"]
        argv, env = self._cli(tmp_path, "run", *small, "--out", str(out))
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        redo = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert redo.returncode == 1
        assert "--resume" in redo.stderr

    def test_status_and_report(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        small = ["--graphs", "twitter", "--algorithms", "PR,BFS",
                 "--frameworks", "ligra,polymer", "--orderings", "original,vebo",
                 "--scale", "0.04"]
        argv, env = self._cli(tmp_path, "run", *small, "--out", str(out),
                              "--jobs", "2")
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0

        argv, env = self._cli(tmp_path, "status", *small, "--out", str(out))
        status = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert status.returncode == 0
        assert "completed 8, pending 0" in status.stdout

        argv, env = self._cli(tmp_path, "report", "--out", str(out))
        report = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert report.returncode == 0
        assert "twitter-like/PR/ligra" in report.stdout
        assert "geomean vebo speedup over original" in report.stdout
        assert "sweep group" not in report.stdout  # homogeneous store

        # a typo'd ordering must error, not silently print nothing
        argv, env = self._cli(tmp_path, "report", "--out", str(out),
                              "--target", "veob")
        bad = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert bad.returncode == 1
        assert "unknown ordering" in bad.stderr

        # a second sweep at another scale lands in its own report group
        other = ["--graphs", "twitter", "--algorithms", "BFS",
                 "--frameworks", "ligra", "--orderings", "original",
                 "--scale", "0.03"]
        argv, env = self._cli(tmp_path, "run", *other, "--out", str(out),
                              "--resume")
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        argv, env = self._cli(tmp_path, "report", "--out", str(out))
        mixed = subprocess.run(argv, env=env, capture_output=True, text=True)
        assert mixed.returncode == 0
        assert mixed.stdout.count("-- sweep group:") == 2
