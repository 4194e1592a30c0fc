"""The shared append-only JSONL log (`repro.store.appendlog`) under each of
the repository's three logs: a line that no longer decodes — here one
flipped byte that is not UTF-8 — is skipped, and every other line still
reads back."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import obs
from repro.experiments import ExperimentResult, ResultsStore
from repro.frameworks.personality import RuntimeEstimate
from repro.obs import core
from repro.store.measurements import MEASUREMENT_VERSION, MeasurementStore

NAMES = ["alpha", "bravo", "charlie"]


def _result() -> ExperimentResult:
    estimate = RuntimeEstimate(
        seconds=1.0, per_iteration=np.array([1.0]), framework="ligra",
        algorithm="PR", graph_name="g", num_partitions=4,
    )
    return ExperimentResult(
        graph="g", algorithm="PR", framework="ligra", ordering="vebo",
        seconds=1.0, iterations=1, ordering_seconds=0.0, estimate=estimate,
    )


def results_log(tmp_path, names):
    path = tmp_path / "results.jsonl"
    store = ResultsStore(path)
    for name in names:
        store.append(name, _result())
    return path, lambda: [key for key, _, _ in ResultsStore(path).entries()]


def measurements_log(tmp_path, names):
    path = tmp_path / "samples.jsonl"
    MeasurementStore(path).append(
        [{"version": MEASUREMENT_VERSION, "trace_key": n, "seconds": 1.0} for n in names]
    )
    return path, lambda: [s["trace_key"] for s in MeasurementStore(path).samples()]


def obs_log(tmp_path, names):
    root = tmp_path / "obs"
    obs.set_obs_dir(root)
    with obs.force_enabled():
        for name in names:
            obs.event(name)
    core.reset()  # close the sink before the file is rewritten
    path = root / f"events-{os.getpid()}.jsonl"
    return path, lambda: [e["name"] for e in obs.read_events(root) if e["ph"] == "I"]


@pytest.mark.parametrize("log", [results_log, measurements_log, obs_log])
def test_undecodable_line_is_skipped(log, tmp_path):
    try:
        path, read = log(tmp_path, NAMES)
        assert read() == NAMES
        data = bytearray(path.read_bytes())
        data[data.index(b"bravo") + 2] = 0xEB  # mid-line, not UTF-8
        path.write_bytes(bytes(data))
        assert read() == ["alpha", "charlie"]
    finally:
        core.reset()
