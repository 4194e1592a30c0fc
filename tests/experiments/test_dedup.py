"""Differential equivalence of the trace-aware dedup sweep.

The acceptance bar: trace-aware scheduling (group by execution identity,
execute once, price per framework, replay from the persistent trace
store) is **observationally invisible** — every result payload the dedup
sweep persists is byte-identical to the one a per-cell ``run()`` computes
(the oracle, :func:`oracles.per_cell_results`) over the full 8-graph x
8-algorithm x 3-framework x 2-ordering matrix, serially and under
``--jobs 4``, across a mid-sweep kill — while an execution-count spy
proves the semantic work actually collapses: one execution per (graph,
ordering, algorithm) identity cold, *zero* executions over a warm trace
store.
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
from repro.cli import main as cli_main
from repro.experiments import expand_matrix, group_cells, run_cells
from repro.experiments import runner as runner_mod
from repro.store import ArtifactCache

from oracles import per_cell_results

REPO_ROOT = Path(__file__).resolve().parents[2]

SCALE = 0.04
ALGOS = ["PR", "BFS", "PRD", "BF", "CC", "BC", "SPMV", "BP"]
ORDERINGS = ["original", "vebo"]
FRAMEWORKS = ["ligra", "polymer", "graphgrind"]
ALGO_KWARGS = {"PR": {"num_iterations": 2}, "BP": {"num_iterations": 2}}


class ExecutionSpy:
    """Counts every algorithm execution by (graph name, algorithm)."""

    def __init__(self):
        self.counts: dict[tuple[str, str], int] = {}
        self._original = runner_mod._execute_algorithm

    def install(self):
        def counting(graph, algorithm, kwargs):
            key = (graph.name, algorithm)
            self.counts[key] = self.counts.get(key, 0) + 1
            return self._original(graph, algorithm, kwargs)

        runner_mod._execute_algorithm = counting
        return self

    def uninstall(self):
        runner_mod._execute_algorithm = self._original

    def reset(self):
        self.counts = {}

    def total(self) -> int:
        return sum(self.counts.values())


@pytest.fixture(scope="module")
def matrix_run(tmp_path_factory):
    """One full-matrix campaign shared by the equivalence tests.

    Computes the complete 8x8x3x2 matrix four ways against one shared
    artifact cache — (A) the per-cell oracle, (B) dedup serial with a
    cold trace store, (C) dedup jobs=4 over the now-warm trace store, (D)
    dedup serial warm — the sweeps each into its own results store, with
    an execution spy active on the in-process runs.  The oracle goes
    first, so it is also the run that records every ordering (and its
    ``ordering_seconds``) in the artifact cache.
    """
    base = tmp_path_factory.mktemp("dedup-matrix")
    cache = ArtifactCache(base / "cache")
    datasets = repro_store.available_datasets()[:8]
    assert len(datasets) == 8
    cells = expand_matrix(
        datasets, ALGOS, FRAMEWORKS, ORDERINGS,
        params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
    )
    assert len(cells) == 8 * 8 * 3 * 2

    spy = ExecutionSpy().install()
    runs: dict[str, dict] = {}
    try:
        results = per_cell_results(cells, cache)
        oracle = {
            "payloads": oracle_payloads(cells, results),
            "results": results,
            "counts": dict(spy.counts),
        }
        for name, jobs in (
            ("dedup_cold", 1), ("dedup_jobs4", 4), ("dedup_warm", 1),
        ):
            spy.reset()
            out = base / f"{name}.jsonl"
            stats: dict = {}
            results = run_cells(
                cells, jobs=jobs, store=out, cache=cache, stats=stats
            )
            runs[name] = {
                "out": out,
                "results": results,
                "stats": stats,
                "counts": dict(spy.counts),
            }
    finally:
        spy.uninstall()
    return {"cells": cells, "cache": cache, "oracle": oracle, "runs": runs}


def canonical(result_dict: dict) -> str:
    return json.dumps(result_dict, sort_keys=True, separators=(",", ":"))


def result_payloads(path) -> dict[str, str]:
    """key -> canonical JSON of the persisted result, byte-exact."""
    payloads = {}
    for line in Path(path).read_text().splitlines():
        obj = json.loads(line)
        payloads[obj["key"]] = canonical(obj["result"])
    return payloads


def oracle_payloads(cells, results) -> dict[str, str]:
    """key -> canonical JSON of each per-cell result, as a store holds it."""
    return {
        cell.key(): canonical(result.to_dict())
        for cell, result in zip(cells, results)
    }


class TestDifferentialEquivalence:
    def test_cold_dedup_store_byte_identical_to_per_framework_path(self, matrix_run):
        """The headline: every result the cold dedup sweep persists is
        byte-for-byte the per-cell oracle's result for the same key
        (order-independent — grouping reorders completion, not
        content), and every line records a fresh execution."""
        out = matrix_run["runs"]["dedup_cold"]["out"]
        assert result_payloads(out) == matrix_run["oracle"]["payloads"]
        lines = [json.loads(line) for line in Path(out).read_text().splitlines()]
        assert len(lines) == 384
        assert {line["meta"]["trace_replayed"] for line in lines} == {False}

    def test_parallel_warm_dedup_results_byte_identical(self, matrix_run):
        """jobs=4 and serial over a warm trace store: every persisted
        result payload is byte-identical to the per-cell oracle's (the
        meta channel differs only in the trace_replayed provenance
        flag)."""
        base = matrix_run["oracle"]["payloads"]
        for name in ("dedup_jobs4", "dedup_warm"):
            other = result_payloads(matrix_run["runs"][name]["out"])
            assert other == base

    def test_returned_results_identical_across_all_paths(self, matrix_run):
        base = matrix_run["oracle"]["results"]
        for name in ("dedup_cold", "dedup_jobs4", "dedup_warm"):
            results = matrix_run["runs"][name]["results"]
            assert len(results) == len(base)
            for x, y in zip(base, results):
                assert (x.graph, x.algorithm, x.framework, x.ordering) == (
                    y.graph, y.algorithm, y.framework, y.ordering
                )
                assert x.seconds == y.seconds
                assert x.iterations == y.iterations
                assert x.ordering_seconds == y.ordering_seconds
                assert np.array_equal(
                    x.estimate.per_iteration, y.estimate.per_iteration
                )

    def test_spy_cold_dedup_executes_each_identity_exactly_once(self, matrix_run):
        """128 execution identities (8 graphs x 2 orderings x 8
        algorithms) -> exactly 128 executions, one per identity; the
        per-cell oracle runs every one of them three times (once per
        framework: it never replays)."""
        cold = matrix_run["runs"]["dedup_cold"]["counts"]
        assert sum(cold.values()) == 8 * 2 * 8
        assert set(cold.values()) == {1}
        per_cell = matrix_run["oracle"]["counts"]
        assert sum(per_cell.values()) == 8 * 2 * 8 * 3
        assert set(per_cell.values()) == {3}
        assert set(per_cell) == set(cold)

    def test_spy_warm_sweep_executes_nothing(self, matrix_run):
        """A re-sweep over a warm trace store is pure pricing: zero
        algorithm executions (so a new framework personality or cost
        model re-prices the whole matrix for free)."""
        assert matrix_run["runs"]["dedup_warm"]["counts"] == {}
        stats = matrix_run["runs"]["dedup_warm"]["stats"]
        assert stats["replayed"] == stats["groups"] == 128
        assert stats["executed"] == 0

    def test_stats_account_for_every_group(self, matrix_run):
        cold = matrix_run["runs"]["dedup_cold"]["stats"]
        assert cold == {
            "cells": 384, "resumed": 0, "computed": 384,
            "groups": 128, "executed": 128, "replayed": 0,
        }
        jobs4 = matrix_run["runs"]["dedup_jobs4"]["stats"]
        assert jobs4["replayed"] == 128 and jobs4["executed"] == 0

    def test_group_cells_identity(self, matrix_run):
        groups = group_cells(matrix_run["cells"])
        assert len(groups) == 128
        assert all(len(g) == 3 for g in groups)
        for g in groups:
            assert len({c.framework for c in g}) == 3
            assert len({(c.dataset, c.ordering, c.algorithm) for c in g}) == 1


class TestResumeAcrossKill:
    """Kill a dedup sweep mid-flight, resume it, and prove the completed
    store holds exactly the per-cell oracle's results."""

    MATRIX = [
        "--graphs", "twitter", "--algorithms", ",".join(ALGOS),
        "--frameworks", ",".join(FRAMEWORKS),
        "--orderings", ",".join(ORDERINGS),
        "--scale", str(SCALE), "--iterations", "2",
    ]
    TOTAL = 8 * 3 * 2

    def _cli(self, tmp_path, *extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        return [sys.executable, "-m", "repro.cli", "sweep", *extra], env

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

    def test_killed_dedup_sweep_resumes_to_per_framework_contents(self, tmp_path):
        # Prewarm the *ordering* cache (a tiny single-framework sweep) so
        # every later run replays identical ordering_seconds — without
        # it, two pool workers racing on a cold VEBO ordering can each
        # persist their own wall-clock measurement (the long-standing
        # byte-stability caveat, orthogonal to dedup).
        warm = tmp_path / "warm.jsonl"
        argv, env = self._cli(
            tmp_path, "run", "--graphs", "twitter", "--algorithms", "BFS",
            "--frameworks", "ligra", "--orderings", ",".join(ORDERINGS),
            "--scale", str(SCALE), "--jobs", "1", "--out", str(warm),
        )
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0

        out = tmp_path / "dedup.jsonl"
        argv, env = self._cli(
            tmp_path, "run", *self.MATRIX, "--jobs", "1", "--out", str(out)
        )
        proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if len(self._valid_keys(out)) >= 4 or proc.poll() is not None:
                    break
                time.sleep(0.02)
            proc.send_signal(signal.SIGKILL)
        finally:
            proc.wait()
        before = self._valid_keys(out)
        assert before, "sweep produced no results before the kill"

        argv, env = self._cli(
            tmp_path, "run", *self.MATRIX, "--jobs", "4",
            "--out", str(out), "--resume",
        )
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=600)
        assert done.returncode == 0, done.stderr
        after = self._valid_keys(out)
        assert len(after) == len(set(after)) == self.TOTAL
        assert set(before) <= set(after)

        # the resumed store's results == the per-cell oracle's, byte for
        # byte (same shared cache, so ordering_seconds replay too)
        cells = expand_matrix(
            ["twitter"], ALGOS, FRAMEWORKS, ORDERINGS,
            params={"scale": SCALE, "seed": 12345}, algo_kwargs=ALGO_KWARGS,
        )
        results = per_cell_results(cells, ArtifactCache(tmp_path / "cache"))
        assert result_payloads(out) == oracle_payloads(cells, results)


class TestDedupCLIReporting:
    """`sweep run` / `sweep status` surface the dedup statistics."""

    ARGS = [
        "--graphs", "twitter", "--algorithms", "PR,BFS",
        "--frameworks", "ligra,polymer,graphgrind",
        "--orderings", "original,vebo", "--scale", str(SCALE),
        "--iterations", "2",
    ]

    @pytest.fixture()
    def cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        return tmp_path

    def test_run_and_status_report_dedup_statistics(self, cache_env, capsys):
        out = cache_env / "sweep.jsonl"
        assert cli_main(["sweep", "run", *self.ARGS, "--out", str(out)]) == 0
        run_out = capsys.readouterr().out
        assert (
            "dedup: 12 cell(s) priced from 4 execution group(s) "
            "(3.0 cells/execution); trace store: 0 replayed, "
            "4 executed fresh" in run_out
        )

        assert cli_main(["sweep", "status", *self.ARGS, "--out", str(out)]) == 0
        status_out = capsys.readouterr().out
        assert "completed 12, pending 0" in status_out
        assert "dedup: 12 cell(s) in 4 execution group(s) (3.0 cells/execution)" in status_out
        assert (
            "trace store: 0 hit(s) (cells priced from a stored trace), "
            "12 miss(es) (executed fresh)" in status_out
        )

        # re-sweep into a fresh store: every cell replays from the trace
        # store and both subcommands say so
        out2 = cache_env / "sweep2.jsonl"
        assert cli_main(["sweep", "run", *self.ARGS, "--out", str(out2)]) == 0
        rerun_out = capsys.readouterr().out
        assert "trace store: 4 replayed, 0 executed fresh" in rerun_out
        assert cli_main(["sweep", "status", *self.ARGS, "--out", str(out2)]) == 0
        status2 = capsys.readouterr().out
        assert (
            "trace store: 12 hit(s) (cells priced from a stored trace), "
            "0 miss(es) (executed fresh)" in status2
        )

    def test_report_groups_ignore_replay_provenance(self, cache_env, capsys):
        """A store mixing replayed and freshly executed cells of the same
        (dataset, params) must render as ONE report group — the
        trace_replayed provenance flag is not identity."""
        warm = ["--graphs", "twitter", "--algorithms", "PR",
                "--frameworks", "ligra", "--orderings", "original,vebo",
                "--scale", str(SCALE), "--iterations", "2"]
        assert cli_main(
            ["sweep", "run", *warm, "--out", str(cache_env / "warm.jsonl")]
        ) == 0
        capsys.readouterr()
        # PR now replays from the trace store, BFS executes fresh — one
        # store, mixed provenance, same dataset+params
        mixed = cache_env / "mixed.jsonl"
        assert cli_main([
            "sweep", "run", "--graphs", "twitter", "--algorithms", "PR,BFS",
            "--frameworks", "ligra", "--orderings", "original,vebo",
            "--scale", str(SCALE), "--iterations", "2", "--out", str(mixed),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace store: 2 replayed, 2 executed fresh" in out
        assert cli_main(["sweep", "report", "--out", str(mixed)]) == 0
        report = capsys.readouterr().out
        assert "sweep group" not in report  # homogeneous identity, one group
        assert "geomean vebo speedup over original" in report


class TestTracesCLI:
    @pytest.fixture()
    def cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        return tmp_path

    BUILD = [
        "--graphs", "twitter", "--algorithms", "PR,BFS",
        "--orderings", "original,vebo", "--scale", str(SCALE),
        "--iterations", "2",
    ]

    def test_build_list_clean_cycle(self, cache_env, capsys):
        assert cli_main(["traces", "build", *self.BUILD]) == 0
        out = capsys.readouterr().out
        assert "traces build: 4 executed, 0 already stored" in out

        # idempotent: a second build replays every identity
        assert cli_main(["traces", "build", *self.BUILD]) == 0
        out = capsys.readouterr().out
        assert "traces build: 0 executed, 4 already stored" in out

        assert cli_main(["traces", "list"]) == 0
        out = capsys.readouterr().out
        assert "(4 trace(s))" in out
        assert "PR" in out and "BFS" in out and "vebo" in out

        # a prewarmed trace store makes the sweep pure pricing
        sweep_out = cache_env / "s.jsonl"
        assert cli_main([
            "sweep", "run", "--graphs", "twitter", "--algorithms", "PR,BFS",
            "--orderings", "original,vebo", "--scale", str(SCALE),
            "--iterations", "2", "--out", str(sweep_out),
        ]) == 0
        out = capsys.readouterr().out
        assert "trace store: 4 replayed, 0 executed fresh" in out

        assert cli_main(["traces", "clean"]) == 0
        out = capsys.readouterr().out
        assert "removed 4 trace(s)" in out
        assert cli_main(["traces", "list"]) == 0
        assert "(0 trace(s))" in capsys.readouterr().out

    def test_refresh_reexecutes(self, cache_env, capsys):
        small = ["--graphs", "twitter", "--algorithms", "BFS",
                 "--orderings", "original", "--scale", str(SCALE)]
        assert cli_main(["traces", "build", *small]) == 0
        assert cli_main(["traces", "build", *small, "--refresh"]) == 0
        out = capsys.readouterr().out
        assert "traces build: 1 executed, 0 already stored" in out

    def test_build_requires_cache(self, cache_env, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_OFF", "1")
        assert cli_main(["traces", "build", "--graphs", "twitter"]) == 1
        assert "caching disabled" in capsys.readouterr().err
