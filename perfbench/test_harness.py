"""Tests of the benchmark harness's own logic (not of the program).

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import layers
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _result(**changes):
    from repro.experiments import ExperimentResult
    from repro.frameworks.personality import RuntimeEstimate

    estimate = RuntimeEstimate(
        seconds=1.5, per_iteration=np.array([1.0, 0.5]), framework="ligra",
        algorithm="PR", graph_name="g", num_partitions=384,
        details={"src_miss": 0.4, "dst_miss": 0.5},
    )
    result = ExperimentResult(
        graph="g", algorithm="PR", framework="ligra", ordering="vebo",
        seconds=1.5, iterations=2, ordering_seconds=0.25, estimate=estimate,
    )
    return dataclasses.replace(result, **changes)


def test_result_digest_ignores_ordering_seconds():
    assert workloads.result_digest(_result()) == workloads.result_digest(
        _result(ordering_seconds=0.75))


@pytest.mark.parametrize("changes", [
    {"seconds": 1.5000000000000002},
    {"iterations": 3},
    {"machine": "laptop"},
    {"ordering": "original"},
])
def test_result_digest_catches_a_flipped_modeled_field(changes):
    assert workloads.result_digest(_result()) != workloads.result_digest(_result(**changes))


def test_result_digest_catches_a_flipped_estimate():
    flipped = dataclasses.replace(_result().estimate, per_iteration=np.array([1.0, 0.25]))
    assert workloads.result_digest(_result()) != workloads.result_digest(
        _result(estimate=flipped))


def test_trace_digest_catches_a_flipped_record():
    from repro.algorithms import ALGORITHMS
    from repro.graph import generators as gen

    graph = gen.zipf_powerlaw_graph(300, s=1.2, max_degree=30, seed=3)
    trace = ALGORITHMS["BFS"](graph, source=0, num_partitions=8).trace
    rec = trace.records[0]
    edges = rec.part_edges.copy()
    edges[0] += 1
    flipped = dataclasses.replace(trace, records=[dataclasses.replace(rec, part_edges=edges)]
                                  + trace.records[1:])
    assert workloads.trace_digest(trace, 3) == workloads.trace_digest(trace, 3)
    assert workloads.trace_digest(trace, 3) != workloads.trace_digest(flipped, 3)
    assert workloads.trace_digest(trace, 3) != workloads.trace_digest(trace, 4)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER
    names = list(per_layer) + [m["name"] for m in spec["end_to_end"]]
    assert len(names) == len(set(names))
    for name in names:
        assert layers.METRIC_NAME.match(name), name
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_pins_cover_every_cell_and_execution():
    assert len(workloads.load_pins("table3-reprice")) == workloads.ATTEMPTED["table3-reprice"]
    assert len(workloads.load_pins("table3-cold")) == workloads.ATTEMPTED["table3-cold"]
    assert len(workloads.load_pins("powerlaw-traces")) == workloads.ATTEMPTED["powerlaw-traces"]


def test_tracer_restores_every_wrapped_function():
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        targets = tracer.targets()
        assert targets
        for owner, attr, original in targets:
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            assert current is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.restore()
    assert layers.unrestored(targets) == []
    assert tracer.targets() == []


def test_traced_sweep_books_balance(tmp_path):
    import time

    from repro.experiments import run_matrix
    from repro.store import ArtifactCache

    tracer = layers.LayerTracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        results = run_matrix(
            ["orkut"], ["PR", "BFS"], ["ligra", "graphgrind"], ["original", "vebo"],
            params={"scale": 0.02, "seed": 7}, algo_kwargs={"PR": {"num_iterations": 2}},
            backend="vectorized", cache=ArtifactCache(tmp_path / "cache"),
            store=tmp_path / "results.jsonl",
        )
        wall_s = time.perf_counter() - t0
    finally:
        tracer.restore()
    assert len(results) == 8
    assert layers.check_accounting(tracer, wall_s) == []
    m = tracer.metrics(wall_s)
    assert m["frameworks.executions"] == 4          # 2 algorithms x 2 orderings
    assert m["machine.price_calls"] == 8
    assert m["experiments.results_appends"] == 8
    assert m["graph.builds"] == 1
    assert m["store.save_trace_calls"] == m["store.load_trace_calls"] == 4
    assert m["store.trace_replay_ratio"] == 0.0
    assert m["store.bytes_written"] > 0
    assert m["experiments.unattributed_s"] >= 0.0
    assert set(m) | {"trace_overhead_s"} == set(layers.PER_LAYER)
