"""Measured wall-clock end to end: record, persist, survive replay.

Regression suite for the measurement flow: the parallel backend's
per-chunk timings ride the trace's ephemeral ``meta`` channel, and the
trace store deliberately drops ``meta`` on disk — so ``execute`` must
drain the channel into the persistent measurement store *at record
time*, or a warm (replayed) sweep carries zero measurements and
``machines calibrate`` starves.  Also pins that a fresh and a replayed
cell serialize identically (byte-identity of the results store is a
separate contract).
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import execute, run
from repro.frameworks.parallel import MIN_WORK_ENV_VAR, WORKERS_ENV_VAR
from repro.machine.calibrate import CalibrationSample, fit_machine
from repro.store import ArtifactCache, load_graph
from repro.store.measurements import MeasurementStore


@pytest.fixture()
def parallel_env(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")


def test_measurements_survive_trace_store_round_trip(tmp_path, parallel_env):
    """The bug: meta dies with the trace bundle.  The fix: samples land
    in the measurement store when the fresh execution records them, so a
    later replayed run still calibrates."""
    cache = ArtifactCache(tmp_path / "cache")
    graph = load_graph("twitter", scale=0.3, cache=cache)

    cold = execute(
        graph, "PR", ordering="vebo", num_partitions=16,
        traces=cache, backend="parallel", num_iterations=3,
    )
    assert cold.replayed is False

    ms = MeasurementStore.in_cache(cache)
    recorded = ms.count()
    assert recorded > 0, "fresh parallel execution must persist samples"

    warm = execute(
        graph, "PR", ordering="vebo", num_partitions=16,
        traces=cache, backend="parallel", num_iterations=3,
    )
    assert warm.replayed is True
    assert ms.count() == recorded, "replay must not append samples"

    # The whole point: calibration works from the *store*, not the trace.
    samples = [CalibrationSample.from_record(r) for r in ms.samples()]
    cal = fit_machine(samples, name="warm-fit")
    assert cal.machine.time_scale > 0
    assert cal.num_samples == recorded


def test_sequential_backends_record_nothing(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    graph = load_graph("twitter", scale=0.3, cache=cache)
    ex = execute(
        graph, "PR", ordering="vebo", num_partitions=16,
        traces=cache, backend="vectorized", num_iterations=3,
    )
    assert not ex.replayed
    assert MeasurementStore.in_cache(cache).count() == 0


def test_fresh_and_replayed_results_serialize_identically(tmp_path, parallel_env):
    """A cell's payload is the same whether its trace executed on the
    parallel backend (and measured its bands) or replayed: measurements
    live in the measurement store, never in ``to_dict`` (the
    results-store byte-identity pin)."""
    cache = ArtifactCache(tmp_path / "cache")
    graph = load_graph("twitter", scale=0.3, cache=cache)
    # cache= makes both runs share one persisted ordering (identical
    # ordering_seconds); only the measurement side differs.
    fresh = run(
        graph, "PR", "ligra", ordering="vebo",
        cache=cache, traces=cache, backend="parallel", num_iterations=3,
    )
    measured = MeasurementStore.in_cache(cache).count()
    assert measured > 0
    replayed = run(
        graph, "PR", "ligra", ordering="vebo",
        cache=cache, traces=cache, backend="parallel", num_iterations=3,
    )
    assert MeasurementStore.in_cache(cache).count() == measured
    assert fresh.to_dict() == replayed.to_dict()


# ----------------------------------------------------------------------
# the CLI surface: calibrate from a real sweep, personality file cycle
# ----------------------------------------------------------------------

class TestMachinesCLI:
    @pytest.fixture()
    def cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        monkeypatch.setenv(WORKERS_ENV_VAR, "2")
        monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
        return tmp_path

    def test_calibrate_without_samples_fails_loudly(self, cache_env, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["machines", "calibrate"]) == 1
        err = capsys.readouterr().err
        assert "0 sample(s)" in err
        assert "parallel" in err  # names the backend that records
        assert "REPRO_PARALLEL_WORKERS" in err  # and the knob to set

    def test_calibrate_from_sweep_then_file_cycle(self, cache_env, capsys):
        """The headline flow: parallel sweep -> measurement store ->
        calibrate -> save/add -> the fitted machine prices a sweep, even
        across pool worker processes."""
        from repro.cli import main as cli_main
        from repro.machine.models import MACHINES

        out = cache_env / "sweep.jsonl"
        assert cli_main([
            "sweep", "run", "--graphs", "twitter", "--algorithms", "PR",
            "--orderings", "original,vebo", "--scale", "0.4",
            "--backend", "parallel", "--out", str(out),
        ]) == 0
        capsys.readouterr()

        saved = cache_env / "fit.json"
        assert cli_main([
            "machines", "calibrate", "--name", "testfit",
            "--save", str(saved), "--add",
        ]) == 0
        text = capsys.readouterr().out
        assert "overall relative error:" in text
        assert "PR" in text and "twitter-like" in text  # per-cell residuals
        assert saved.exists()

        try:
            # save -> load -> save byte identity through the CLI.
            again = cache_env / "fit2.json"
            assert cli_main(["machines", "save", "testfit", str(again)]) == 0
            assert saved.read_bytes() == again.read_bytes()
            assert cli_main(["machines", "load", str(saved)]) == 0
            assert "testfit" in capsys.readouterr().out

            # `machines list` marks the installed user machine.
            assert cli_main(["machines", "list"]) == 0
            assert "testfit" in capsys.readouterr().out

            # The fitted personality prices cells in pool workers (which
            # re-import everything and must reload user machine files).
            out2 = cache_env / "sweep2.jsonl"
            assert cli_main([
                "sweep", "run", "--graphs", "twitter", "--algorithms", "PR",
                "--orderings", "vebo", "--scale", "0.4",
                "--machines", "testfit", "--jobs", "2", "--out", str(out2),
            ]) == 0
            assert "@testfit" in capsys.readouterr().out
        finally:
            MACHINES.pop("testfit", None)
