"""`sweep reprice`: the machine-model re-pricing contract.

The acceptance bar: given a warm trace store, the full 8-graph x
8-algorithm x 3-framework x 2-ordering matrix prices under multiple
machine models with **zero** fresh executions — proven twice over, by an
execution-count spy on the in-process path and by the CLI's own
statistics — and the default-machine slice of the repriced matrix is
byte-identical to the results a regular sweep computed while warming the
store.
"""

import json
from pathlib import Path

import pytest

from repro import store as repro_store
from repro.cli import main as cli_main
from repro.errors import ResultsError
from repro.experiments import (
    ResultsStore,
    SweepCell,
    expand_matrix,
    group_cells,
    run_cells,
)
from repro.experiments import runner as runner_mod
from repro.machine.models import DEFAULT_MACHINE
from repro.store import ArtifactCache

SCALE = 0.04
ALGOS = ["PR", "BFS", "PRD", "BF", "CC", "BC", "SPMV", "BP"]
ORDERINGS = ["original", "vebo"]
FRAMEWORKS = ["ligra", "polymer", "graphgrind"]
MACHINES = [DEFAULT_MACHINE, "laptop"]
ALGO_KWARGS = {"PR": {"num_iterations": 2}, "BP": {"num_iterations": 2}}


class ExecutionSpy:
    def __init__(self):
        self.count = 0
        self._original = runner_mod._execute_algorithm

    def install(self):
        def counting(graph, algorithm, kwargs):
            self.count += 1
            return self._original(graph, algorithm, kwargs)

        runner_mod._execute_algorithm = counting
        return self

    def uninstall(self):
        runner_mod._execute_algorithm = self._original


@pytest.fixture(scope="module")
def reprice_run(tmp_path_factory):
    """Warm the trace store with one full-matrix sweep on the default
    machine, then reprice the (framework x machine) matrix from it with
    the spy armed."""
    base = tmp_path_factory.mktemp("reprice-matrix")
    cache = ArtifactCache(base / "cache")
    datasets = repro_store.available_datasets()[:8]
    warm_cells = expand_matrix(
        datasets, ALGOS, FRAMEWORKS, ORDERINGS,
        params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS,
    )
    warm_out = base / "warm.jsonl"
    warm_results = run_cells(warm_cells, store=warm_out, cache=cache)

    reprice_cells = expand_matrix(
        datasets, ALGOS, FRAMEWORKS, ORDERINGS,
        params={"scale": SCALE}, algo_kwargs=ALGO_KWARGS, machines=MACHINES,
    )
    spy = ExecutionSpy().install()
    stats: dict = {}
    out = base / "repriced.jsonl"
    try:
        results = run_cells(
            reprice_cells, store=out, cache=cache, replay_only=True,
            stats=stats,
        )
    finally:
        spy.uninstall()
    return {
        "cache": cache,
        "warm_cells": warm_cells,
        "warm_out": warm_out,
        "warm_results": warm_results,
        "cells": reprice_cells,
        "results": results,
        "out": out,
        "stats": stats,
        "executions": spy.count,
    }


class TestFullMatrixReprice:
    def test_matrix_shape(self, reprice_run):
        assert len(reprice_run["cells"]) == 8 * 8 * 3 * 2 * len(MACHINES)
        assert len(reprice_run["results"]) == len(reprice_run["cells"])

    def test_spy_zero_fresh_executions(self, reprice_run):
        """The headline: repricing 768 cells executed nothing."""
        assert reprice_run["executions"] == 0

    def test_stats_all_groups_replayed(self, reprice_run):
        stats = reprice_run["stats"]
        assert stats["executed"] == 0
        assert stats["replayed"] == stats["groups"] == 8 * 8 * 2
        assert stats["computed"] == len(reprice_run["cells"])

    def test_machine_excluded_from_execution_identity(self, reprice_run):
        groups = group_cells(reprice_run["cells"])
        assert len(groups) == 8 * 8 * 2
        for g in groups:
            # every (framework, machine) pair rides one execution
            assert len(g) == len(FRAMEWORKS) * len(MACHINES)
            assert len({(c.framework, c.machine) for c in g}) == len(g)

    def test_default_machine_slice_byte_identical_to_warm_sweep(self, reprice_run):
        """Repricing must reproduce the warming sweep's cells exactly:
        same keys, byte-identical result payloads."""
        def payloads(path):
            out = {}
            for line in Path(path).read_text().splitlines():
                obj = json.loads(line)
                out[obj["key"]] = json.dumps(
                    obj["result"], sort_keys=True, separators=(",", ":")
                )
            return out

        warm = payloads(reprice_run["warm_out"])
        repriced = payloads(reprice_run["out"])
        default_keys = {c.key() for c in reprice_run["cells"]
                        if c.machine == DEFAULT_MACHINE}
        assert set(warm) == default_keys
        for key in default_keys:
            assert repriced[key] == warm[key]

    def test_other_machine_prices_differ_but_share_iterations(self, reprice_run):
        by_cell = dict(zip(
            [(c.dataset, c.algorithm, c.framework, c.ordering, c.machine)
             for c in reprice_run["cells"]],
            reprice_run["results"],
        ))
        differ = 0
        for (d, a, f, o, m), r in by_cell.items():
            if m == DEFAULT_MACHINE:
                continue
            base = by_cell[(d, a, f, o, DEFAULT_MACHINE)]
            assert r.iterations == base.iterations
            assert r.machine == "laptop" and base.machine == DEFAULT_MACHINE
            differ += r.seconds != base.seconds
        assert differ > 0.9 * (len(by_cell) / 2)  # machines genuinely differ

    def test_reprice_is_idempotent_resume(self, reprice_run):
        """A second reprice into the same store resumes every cell."""
        stats: dict = {}
        results = run_cells(
            reprice_run["cells"], store=reprice_run["out"],
            cache=reprice_run["cache"], replay_only=True, stats=stats,
        )
        assert stats["resumed"] == len(reprice_run["cells"])
        assert stats["groups"] == 0
        for x, y in zip(reprice_run["results"], results):
            assert x.seconds == y.seconds and x.machine == y.machine


class TestReplayOnlyContract:
    def test_miss_raises_not_executes(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        cells = expand_matrix(
            ["twitter"], ["BFS"], ["ligra"], ["original"],
            params={"scale": SCALE},
        )
        spy = ExecutionSpy().install()
        try:
            with pytest.raises(ResultsError, match="traces build"):
                run_cells(cells, cache=cache, replay_only=True)
        finally:
            spy.uninstall()
        assert spy.count == 0

    def test_replay_only_requires_cache(self):
        with pytest.raises(ResultsError, match="artifact cache"):
            run_cells([], cache=False, replay_only=True)


class TestMachineCellKeys:
    def test_machine_is_a_key_dimension(self):
        a = SweepCell(dataset="twitter", algorithm="PR", framework="ligra",
                      ordering="original")
        b = SweepCell(dataset="twitter", algorithm="PR", framework="ligra",
                      ordering="original", machine="laptop")
        assert a.key() != b.key()
        assert a.execution_identity() == b.execution_identity()
        assert a.machine == DEFAULT_MACHINE

    def test_label_tags_non_default_machine_only(self):
        a = SweepCell(dataset="twitter", algorithm="PR", framework="ligra",
                      ordering="original")
        b = SweepCell(dataset="twitter", algorithm="PR", framework="ligra",
                      ordering="original", machine="laptop")
        assert "@" not in a.label()
        assert b.label().endswith("@laptop")

    def test_expand_matrix_validates_machines(self):
        with pytest.raises(ResultsError, match="unknown machine"):
            expand_matrix(["twitter"], ["PR"], ["ligra"], ["original"],
                          machines=["abacus"])


class TestRepriceCLI:
    MATRIX = [
        "--graphs", "twitter", "--algorithms", "PR,BFS",
        "--orderings", "original,vebo", "--scale", str(SCALE),
        "--iterations", "2",
    ]

    @pytest.fixture()
    def cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        return tmp_path

    def test_reprice_cold_store_fails_loudly(self, cache_env, capsys):
        out = cache_env / "r.jsonl"
        assert cli_main(["sweep", "reprice", *self.MATRIX, "--out", str(out)]) == 1
        assert "traces build" in capsys.readouterr().err

    def test_reprice_warm_store_zero_executions(self, cache_env, capsys):
        assert cli_main(["traces", "build", *self.MATRIX]) == 0
        capsys.readouterr()
        out = cache_env / "r.jsonl"
        assert cli_main([
            "sweep", "reprice", *self.MATRIX,
            "--machines", "paper-xeon,laptop", "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "24 cell(s) across 2 machine model(s)" in text
        assert "priced from 4 stored trace(s)" in text
        assert "0 executed fresh" in text
        assert "@laptop" in text

        # the store now renders one report section per machine
        assert cli_main(["sweep", "report", "--out", str(out)]) == 0
        report = capsys.readouterr().out
        assert "-- machine: paper-xeon --" in report
        assert "-- machine: laptop --" in report

        # defaulting --machines prices every registered machine
        out2 = cache_env / "all.jsonl"
        assert cli_main(["sweep", "reprice", *self.MATRIX, "--out", str(out2)]) == 0
        text = capsys.readouterr().out
        from repro.machine.models import MACHINES

        assert f"across {len(MACHINES)} machine model(s)" in text
        assert "0 executed fresh" in text

    def test_reprice_requires_cache(self, cache_env, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_OFF", "1")
        assert cli_main(["sweep", "reprice", *self.MATRIX,
                         "--out", str(cache_env / "r.jsonl")]) == 1
        assert "caching disabled" in capsys.readouterr().err

    def test_sweep_run_accepts_machines_flag(self, cache_env, capsys):
        out = cache_env / "run.jsonl"
        small = ["--graphs", "twitter", "--algorithms", "PR",
                 "--frameworks", "ligra", "--orderings", "original",
                 "--scale", str(SCALE), "--iterations", "2"]
        assert cli_main([
            "sweep", "run", *small, "--machines", "paper-xeon,big-numa",
            "--out", str(out),
        ]) == 0
        text = capsys.readouterr().out
        assert "sweep: 2 cell(s)" in text
        assert "@big-numa" in text
        # one execution fanned out across both machines
        assert "1 executed fresh" in text

        assert cli_main([
            "sweep", "status", *small, "--machines", "paper-xeon,big-numa",
            "--out", str(out),
        ]) == 0
        status = capsys.readouterr().out
        assert "completed 2, pending 0" in status

    def test_machines_list(self, capsys):
        assert cli_main(["machines", "list"]) == 0
        text = capsys.readouterr().out
        assert "paper-xeon*" in text
        assert "laptop" in text and "big-numa" in text
