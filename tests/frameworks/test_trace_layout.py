"""A trace's layout: distinct rows plus a step index, decided in one place.

``WorkTrace`` holds what its bundle holds: ``rows``, its distinct record
objects in first-use order, and ``steps``, one row index per step.  Only
``append`` and ``extend`` decide which steps share a row, by record
identity, so the engine's memo sharing is the trace's sharing, the bundle
stores that layout as it is, and a replay comes back with it.  These
tests hold every algorithm to that on both shipped backends, pin the
per-step view the rest of the program reads, and pin ``extend``: the
merge CC and BC use for their reverse engine's steps, band timings
included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import ALGORITHMS
from repro.algorithms.bc import betweenness_centrality
from repro.algorithms.cc import connected_components
from repro.experiments.runner import execute, prepare
from repro.frameworks.frontier import DensityClass
from repro.frameworks.parallel import MIN_WORK_ENV_VAR, WORKERS_ENV_VAR
from repro.frameworks.trace import IterationRecord, WorkTrace, traces_equal
from repro.graph import generators as gen
from repro.store import ArtifactCache, trace_key
from repro.store.measurements import samples_from_trace
from repro.store.traces import pack_trace, unpack_trace

P = 16
BACKENDS = ["vectorized", "parallel"]


@pytest.fixture(autouse=True)
def fan_out(monkeypatch):
    """Two chunk workers and no size gate: every dense step of the
    ``parallel`` backend fans out (the vectorized backend reads neither)."""
    monkeypatch.setenv(WORKERS_ENV_VAR, "2")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")


@pytest.fixture(scope="module")
def graph():
    return gen.zipf_powerlaw_graph(
        600, s=1.2, max_degree=40, zero_in_fraction=0.1, seed=11, name="layout")


@pytest.fixture(scope="module")
def prepared(graph):
    return prepare(graph, "vebo", num_partitions=P)


@pytest.fixture
def appended(monkeypatch):
    """The record objects handed to each trace, step by step, as the
    engines and the reverse-trace merges pass them: an account kept
    outside the trace's own layout."""
    log: dict[int, tuple[WorkTrace, list]] = {}
    append, extend = WorkTrace.append, WorkTrace.extend

    def entry(trace):
        return log.setdefault(id(trace), (trace, []))[1]

    def spy_append(self, record):
        entry(self).append(record)
        append(self, record)

    def spy_extend(self, other):
        entry(self).extend(entry(other))
        extend(self, other)

    monkeypatch.setattr(WorkTrace, "append", spy_append)
    monkeypatch.setattr(WorkTrace, "extend", spy_extend)
    return lambda trace: entry(trace)


def identity_layout(records) -> tuple[list, list[int]]:
    """Distinct objects of ``records`` in first-use order, and each
    step's position among them."""
    rows: list = []
    row_of: dict[int, int] = {}
    steps = []
    for rec in records:
        if id(rec) not in row_of:
            row_of[id(rec)] = len(rows)
            rows.append(rec)
        steps.append(row_of[id(rec)])
    return rows, steps


def same_objects(a, b) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestEveryAlgorithm:
    def test_rows_are_the_distinct_records_in_first_use_order(
            self, graph, prepared, algorithm, backend, appended):
        trace = execute(graph, algorithm, prepared=prepared, num_partitions=P,
                        backend=backend).trace
        handed = appended(trace)
        assert handed, "the execution recorded no step"
        rows, steps = identity_layout(handed)
        assert same_objects(trace.rows, rows)
        assert trace.steps == steps
        assert same_objects(trace.records, handed)

    def test_bundle_stores_the_layout_and_round_trips(
            self, graph, prepared, algorithm, backend):
        trace = execute(graph, algorithm, prepared=prepared, num_partitions=P,
                        backend=backend).trace
        arrays = pack_trace(trace, 3)
        assert arrays["record_index"].tolist() == identity_layout(trace.records)[1]
        assert arrays["ints"].shape[0] == len(trace.rows)
        stored = unpack_trace(arrays)
        assert traces_equal(stored.trace, trace)
        assert stored.trace.steps == trace.steps
        assert len(stored.trace.rows) == len(trace.rows)

    def test_replay_holds_the_bundle_rows_and_index(
            self, graph, algorithm, backend, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        run = lambda: execute(graph, algorithm, "vebo", num_partitions=P,  # noqa: E731
                              traces=cache, backend=backend)
        fresh = run()
        replay = run()
        assert not fresh.replayed and replay.replayed
        bundle = cache.load("trace", trace_key(graph, algorithm, "vebo", P, {}))
        assert replay.trace.steps == bundle["record_index"].tolist()
        assert replay.trace.steps == fresh.trace.steps
        assert len(replay.trace.rows) == bundle["ints"].shape[0]
        repacked = pack_trace(replay.trace, replay.iterations)
        for name in ("record_index", "ints", "miss", "parts"):
            assert np.array_equal(repacked[name], bundle[name]), name
        assert traces_equal(replay.trace, fresh.trace)

    def test_helpers_equal_the_per_step_view(self, graph, prepared, algorithm, backend):
        trace = execute(graph, algorithm, prepared=prepared, num_partitions=P,
                        backend=backend).trace
        records = [trace.rows[i] for i in trace.steps]
        assert same_objects(trace.records, records)
        assert trace.num_iterations == len(records)
        assert trace.total_edges() == sum(int(r.part_edges.sum()) for r in records)
        assert same_objects(trace.edgemap_records(),
                            [r for r in records if r.kind == "edgemap"])
        assert same_objects(trace.vertexmap_records(),
                            [r for r in records if r.kind == "vertexmap"])
        assert trace.density_classes() == {r.density for r in records if r.kind == "edgemap"}
        pull = sum(r.total_edges() for r in records if r.direction == "pull")
        push = sum(r.total_edges() for r in records if r.direction == "push")
        assert trace.dominant_direction() == ("B" if pull >= push else "F")


# ----------------------------------------------------------------------
# CC and BC: a reverse engine's steps merged through ``extend``
# ----------------------------------------------------------------------

FIXTURES = {
    "directed": lambda: gen.zipf_powerlaw_graph(400, s=1.2, max_degree=30, seed=5,
                                                name="directed"),
    "symmetric": lambda: gen.symmetrize(
        gen.zipf_powerlaw_graph(400, s=1.2, max_degree=30, seed=5), name="symmetric"),
}
MERGING = {
    "CC": lambda g, backend: connected_components(g, num_partitions=P, backend=backend),
    "BC": lambda g, backend: betweenness_centrality(g, num_partitions=P, backend=backend),
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("algorithm", sorted(MERGING))
def test_merged_traces_hold_no_duplicate_row(algorithm, fixture, backend, appended):
    """On a symmetric graph the reverse engine runs on an equal graph, so
    both engines share one layout and its record memo: a reverse step can
    hand back a forward step's very object, and it must join that row."""
    graph = FIXTURES[fixture]()
    trace = MERGING[algorithm](graph, backend).trace
    assert len({id(r) for r in trace.rows}) == len(trace.rows)
    rows, steps = identity_layout(appended(trace))
    assert same_objects(trace.rows, rows)
    assert trace.steps == steps


@pytest.mark.parametrize("backend", BACKENDS)
def test_symmetric_cc_shares_rows_across_the_merge(backend):
    """Sync CC's first round runs the full frontier over the graph and
    then over its transpose; on a symmetric graph both are one step."""
    graph = FIXTURES["symmetric"]()
    result = connected_components(graph, num_partitions=P, backend=backend)
    trace = result.trace
    forward = result.iterations  # one forward step per round, then the reverse ones
    assert len(trace.steps) == 2 * forward
    assert trace.steps[forward] == trace.steps[0]
    assert len(trace.rows) < len(trace.steps)


# ----------------------------------------------------------------------
# extend: rows by identity, band timings shifted
# ----------------------------------------------------------------------

def _record(p: int, value: int) -> IterationRecord:
    counts = np.full(p, value, dtype=np.int64)
    zeros = np.zeros(p, dtype=np.int64)
    return IterationRecord(
        kind="edgemap", direction="pull", density=DensityClass.DENSE,
        active_vertices=value, active_edges=value * p, part_edges=counts,
        part_dsts=counts, part_srcs=counts, part_vertices=zeros,
    )


def test_extend_joins_rows_by_identity_and_shifts_band_entries():
    a, b, c = (_record(2, v) for v in (1, 2, 3))
    first = WorkTrace("x", "g", 2)
    for rec in (a, b, a):
        first.append(rec)
    first.meta["parallel_chunks"] = [{"step": 1, "bands": []}]
    second = WorkTrace("x", "g^T", 2)
    for rec in (c, b, c, c):
        second.append(rec)
    second.meta["parallel_chunks"] = [{"step": 0, "bands": []}, {"step": 3, "bands": []}]

    first.extend(second)
    assert same_objects(first.rows, [a, b, c])
    assert first.steps == [0, 1, 0, 2, 1, 2, 2]
    assert same_objects(first.records, [a, b, a, c, b, c, c])
    assert [e["step"] for e in first.meta["parallel_chunks"]] == [1, 3, 6]
    # The merged-in trace keeps its own entries as they were.
    assert [e["step"] for e in second.meta["parallel_chunks"]] == [0, 3]


def test_records_is_a_copy():
    trace = WorkTrace("x", "g", 2)
    trace.append(_record(2, 1))
    trace.records.append(_record(2, 2))
    assert len(trace.records) == 1 and trace.steps == [0]


def test_parallel_cc_keeps_every_band_timing(graph):
    """Sync CC on the parallel backend: each full-frontier step of either
    engine fans out and has exactly one band-timing entry, the reverse
    engine's included, and that entry names its own step's record."""
    result = connected_components(graph, num_partitions=P, backend="parallel")
    trace = result.trace
    n = graph.num_vertices
    full = [i for i, rec in enumerate(trace.records) if rec.active_vertices == n]
    forward = result.iterations
    assert any(i < forward for i in full) and any(i >= forward for i in full)
    entries = trace.meta["parallel_chunks"]
    assert sorted(e["step"] for e in entries) == full
    for entry in entries:
        assert entry["direction"] == trace.records[entry["step"]].direction


def test_samples_read_the_reverse_steps_record(graph, prepared):
    """A reverse step's band samples carry the reverse step's counters,
    not those of the forward step at the same position of its own trace."""
    result = connected_components(
        prepared.graph, num_partitions=P, boundaries=prepared.boundaries,
        backend="parallel")
    trace = result.trace
    forward = result.iterations
    samples = samples_from_trace(
        trace, "k", graph_name=graph.name, ordering="vebo", num_partitions=P,
        boundaries=prepared.boundaries)
    reverse = [e for e in trace.meta["parallel_chunks"] if e["step"] >= forward]
    assert reverse
    bounds = prepared.boundaries
    differs = False
    for entry in reverse:
        step = entry["step"]
        rec = trace.records[step]
        shadow = trace.records[step - forward]
        step_samples = [s for s in samples if s["step"] == step]
        assert len(step_samples) == len(entry["bands"])
        for sample, band in zip(step_samples, entry["bands"]):
            lo, hi = (int(np.searchsorted(bounds, v)) for v in band["vertices"])
            assert sample["unique_dsts"] == int(rec.part_dsts[lo:hi].sum())
            assert sample["unique_srcs"] == int(rec.part_srcs[lo:hi].sum())
            assert sample["src_miss"] == rec.src_miss
            differs |= sample["unique_dsts"] != int(shadow.part_dsts[lo:hi].sum())
    assert differs, "the forward records cannot tell the steps apart on this graph"
