"""The persistent measurement store: append-only JSONL timing samples.

The contract (`repro.store.measurements`): samples appended in one run
are readable in the next, reads are tolerant of truncated/foreign/stale
lines (a crash loses a line, never the store), and
`samples_from_trace` converts a parallel run's `meta["parallel_chunks"]`
entries into self-contained sample dicts whose work counters are exact
slices of the step's own per-partition accounting.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.frameworks.parallel import ParallelEngine
from repro.frameworks.trace import WorkTrace
from repro.graph import generators as gen
from repro.partition.algorithm1 import chunk_boundaries
from repro.store import ArtifactCache
from repro.store.measurements import (
    MEASUREMENT_VERSION,
    MeasurementStore,
    samples_from_trace,
)


def sample(seconds: float = 0.5, **over) -> dict:
    base = {
        "version": MEASUREMENT_VERSION,
        "trace_key": "k",
        "graph": "g",
        "algorithm": "PR",
        "ordering": "vebo",
        "num_partitions": 4,
        "backend": "parallel",
        "workers": 2,
        "workers_configured": 4,
        "step": 0,
        "kind": "edgemap",
        "direction": "pull",
        "edges": 100,
        "unique_dsts": 10,
        "unique_srcs": 20,
        "vertices": 0,
        "src_miss": -1.0,
        "dst_miss": -1.0,
        "remote_fraction": 0.0,
        "seconds": seconds,
    }
    base.update(over)
    return base


# ----------------------------------------------------------------------
# append / read round-trip
# ----------------------------------------------------------------------

def test_append_then_read_round_trip(tmp_path):
    store = MeasurementStore(tmp_path / "m" / "samples.jsonl")
    assert store.samples() == []  # missing file: empty, not an error
    assert store.append([]) == 0
    assert not store.path.exists()  # empty append creates nothing

    written = [sample(0.1), sample(0.2, algorithm="BFS")]
    assert store.append(written) == 2
    assert store.samples() == written
    assert store.count() == len(store) == 2

    # Appends accumulate; a second handle sees the same file.
    assert store.append([sample(0.3)]) == 1
    assert store.count() == 3
    assert MeasurementStore(store.path).samples() == store.samples()


def test_read_is_tolerant_of_junk_lines(tmp_path):
    store = MeasurementStore(tmp_path / "samples.jsonl")
    store.append([sample(0.1)])
    with open(store.path, "a", encoding="utf-8") as fh:
        fh.write('{"version": 1, "seconds": 0.5, "trunca')  # killed mid-write
        fh.write("\n")
        fh.write("not json at all\n")
        fh.write("\n")  # blank
        fh.write(json.dumps([1, 2, 3]) + "\n")  # non-dict
        fh.write(json.dumps(sample(0.9, version=999)) + "\n")  # foreign version
        nosec = sample()
        del nosec["seconds"]
        fh.write(json.dumps(nosec) + "\n")  # missing the measurement itself
    store.append([sample(0.2)])
    assert [s["seconds"] for s in store.samples()] == [0.1, 0.2]


def test_append_after_killed_writer_keeps_every_new_sample(tmp_path):
    """A worker killed mid-append leaves a final line with no newline; the
    next process's first sample must not be glued onto it and lost."""
    path = tmp_path / "samples.jsonl"
    MeasurementStore(path).append([sample(0.0), sample(1.0)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(sample(2.0))[:-20])  # killed mid-write
    store = MeasurementStore(path)
    assert store.append([sample(3.0), sample(4.0)]) == 2
    assert [s["seconds"] for s in store.samples()] == [0.0, 1.0, 3.0, 4.0]


def test_each_batch_is_one_write(tmp_path, monkeypatch):
    """One ``os.write`` per batch, so a concurrent worker can never see
    (and mistake for an orphan) half of another worker's line."""
    import os

    writes = []
    real_write = os.write

    def spy(fd, data):
        writes.append(bytes(data))
        return real_write(fd, data)

    store = MeasurementStore(tmp_path / "samples.jsonl")
    monkeypatch.setattr(os, "write", spy)
    store.append([sample(0.1), sample(0.2), sample(0.3)])
    monkeypatch.undo()
    ours = [w for w in writes if b'"trace_key"' in w]
    assert len(ours) == 1 and ours[0].count(b"\n") == 3


def _append_batches(path, worker, batches, size):
    store = MeasurementStore(path)
    for b in range(batches):
        store.append(
            [sample(float(i), trace_key=f"{worker}-{b}") for i in range(size)]
        )


def test_concurrent_appenders_lose_no_line(tmp_path):
    """More writer processes than cores on one file: every sample of
    every batch comes back whole."""
    import multiprocessing

    ctx = multiprocessing.get_context("spawn")
    path = tmp_path / "samples.jsonl"
    workers, batches, size = 4, 25, 40
    procs = [
        ctx.Process(target=_append_batches, args=(path, w, batches, size))
        for w in range(workers)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    assert [proc.exitcode for proc in procs] == [0] * workers
    got = MeasurementStore(path).samples()
    assert len(got) == workers * batches * size
    per_batch = {}
    for s in got:
        per_batch[s["trace_key"]] = per_batch.get(s["trace_key"], 0) + 1
    assert set(per_batch.values()) == {size}


def test_memoized_reads_track_file_changes(tmp_path):
    store = MeasurementStore(tmp_path / "samples.jsonl")
    store.append([sample(0.1)])
    first = store.samples()
    assert store.samples() == first  # memo hit
    store.append([sample(0.2)])
    assert len(store.samples()) == 2  # append invalidates via (mtime, size)
    # Callers may mutate the returned list without poisoning the memo.
    store.samples().clear()
    assert len(store.samples()) == 2


def test_clean_removes_and_resets(tmp_path):
    store = MeasurementStore(tmp_path / "samples.jsonl")
    assert store.clean() is False  # nothing there yet
    store.append([sample()])
    assert store.count() == 1
    assert store.clean() is True
    assert store.count() == 0
    assert not store.path.exists()


def test_in_cache_resolution(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path / "cache")
    store = MeasurementStore.in_cache(cache)
    assert store.path == cache.root / "measurement" / "samples.jsonl"
    # False = caching disabled: no store at all.
    assert MeasurementStore.in_cache(False) is None
    # None = default cache, honouring the env knobs.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
    assert MeasurementStore.in_cache(None).path.parent.parent == tmp_path / "envcache"
    monkeypatch.setenv("REPRO_CACHE_OFF", "1")
    assert MeasurementStore.in_cache(None) is None


# ----------------------------------------------------------------------
# samples_from_trace: meta -> self-contained sample dicts
# ----------------------------------------------------------------------

@pytest.fixture()
def parallel_run():
    graph = gen.zipf_powerlaw_graph(250, s=1.1, max_degree=30, seed=8, name="ms")
    p = 16
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    trace = WorkTrace(algorithm="unit", graph_name=graph.name, num_partitions=p)
    eng = ParallelEngine(graph, boundaries, trace, workers=4, min_work=0)
    n = graph.num_vertices

    def gather(srcs, dsts, st_):
        return st_["x"][srcs]

    def apply(touched, reduced, st_):
        return np.ones(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)
    state = {"x": np.ones(n)}
    eng.edgemap(Frontier.all_vertices(n), op, state, direction="pull")
    eng.vertexmap(Frontier.all_vertices(n), lambda ids, st_: None, state)
    return graph, boundaries, trace


def test_samples_from_trace_slices_accounting_exactly(parallel_run):
    graph, boundaries, trace = parallel_run
    samples = samples_from_trace(
        trace, "tkey", graph_name=graph.name, ordering="vebo",
        num_partitions=16, boundaries=boundaries,
    )
    assert samples, "parallel run must yield samples"
    by_step: dict[int, list[dict]] = {}
    for s in samples:
        assert s["version"] == MEASUREMENT_VERSION
        assert s["trace_key"] == "tkey"
        assert s["backend"] == "parallel"
        assert s["remote_fraction"] == 0.0  # threads are NUMA-local
        assert s["workers_configured"] == 4
        assert s["seconds"] >= 0.0
        by_step.setdefault(s["step"], []).append(s)

    for step, group in by_step.items():
        rec = trace.records[step]
        # Bands tile the step: per-band counter sums equal the record's
        # own totals — the slices are exact, not approximate.
        assert sum(s["edges"] for s in group) == int(rec.part_edges.sum())
        assert sum(s["unique_dsts"] for s in group) == int(rec.part_dsts.sum())
        assert sum(s["unique_srcs"] for s in group) == int(rec.part_srcs.sum())
        assert sum(s["vertices"] for s in group) == int(rec.part_vertices.sum())
        assert all(s["kind"] == rec.kind for s in group)
        assert all(s["workers"] == len(group) for s in group)


def test_samples_from_trace_without_meta_is_empty():
    trace = WorkTrace(algorithm="unit", graph_name="g", num_partitions=4)
    assert samples_from_trace(
        trace, "k", graph_name="g", ordering="original",
        num_partitions=4, boundaries=np.array([0, 1, 2, 3, 4]),
    ) == []


def test_samples_from_trace_skips_malformed_chunks(parallel_run):
    graph, boundaries, trace = parallel_run
    good = samples_from_trace(
        trace, "k", graph_name=graph.name, ordering="vebo",
        num_partitions=16, boundaries=boundaries,
    )
    trace.meta["parallel_chunks"].insert(0, {"kind": "edgemap"})  # no step/bands
    trace.meta["parallel_chunks"].insert(0, {"step": 10_000, "bands": []})  # stale
    again = samples_from_trace(
        trace, "k", graph_name=graph.name, ordering="vebo",
        num_partitions=16, boundaries=boundaries,
    )
    assert again == good  # malformed entries skipped, never fatal
