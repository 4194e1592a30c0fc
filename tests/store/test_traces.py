"""The persistent execution-trace store: lossless round-trips + keys.

The serialization contract (`repro.store.traces`): an arbitrary
`WorkTrace` — hostile floats, empty record lists, sparse/dense mixes,
unmeasured `-1.0` miss sentinels — survives pack -> npz -> unpack
**bit-identically**, the bundle stores the trace's rows and step index as
they are (a record object several steps share is stored once and shared
again on load), and the trace key covers exactly the execution inputs (graph
content, ordering, partition count, algorithm + kwargs) and nothing else.
A stored bundle that fails to unpack (an unknown code, the earlier
13-member layout) costs one re-execution, then hits again.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CacheError
from repro.frameworks.frontier import DensityClass
from repro.frameworks.trace import (
    DENSITY_CODES,
    IterationRecord,
    WorkTrace,
    record_fingerprint,
    records_equal,
    traces_equal,
)
from repro.graph import generators as gen
from repro.store import ArtifactCache, load_trace, save_trace, trace_key
from repro.store.traces import pack_trace, unpack_trace


def make_record(
    p: int,
    kind: str = "edgemap",
    direction: str = "pull",
    density: DensityClass = DensityClass.DENSE,
    src_miss: float = -1.0,
    dst_miss: float = -1.0,
    seed: int = 0,
) -> IterationRecord:
    rng = np.random.default_rng(seed)
    return IterationRecord(
        kind=kind,
        direction=direction,
        density=density,
        active_vertices=int(rng.integers(0, 1000)),
        active_edges=int(rng.integers(0, 100_000)),
        part_edges=rng.integers(0, 500, p).astype(np.int64),
        part_dsts=rng.integers(0, 100, p).astype(np.int64),
        part_srcs=rng.integers(0, 100, p).astype(np.int64),
        part_vertices=rng.integers(0, 50, p).astype(np.int64),
        src_miss=src_miss,
        dst_miss=dst_miss,
    )


def trace_of(records, p: int, algorithm: str = "PR", graph_name: str = "g") -> WorkTrace:
    """A trace that executed ``records``, one step each."""
    trace = WorkTrace(algorithm=algorithm, graph_name=graph_name, num_partitions=p)
    for rec in records:
        trace.append(rec)
    return trace


def make_trace(p: int = 4, steps: int = 3, **kwargs) -> WorkTrace:
    algorithm = kwargs.pop("algorithm", "PR")
    graph_name = kwargs.pop("graph_name", "g")
    return trace_of([make_record(p, seed=i, **kwargs) for i in range(steps)], p,
                    algorithm=algorithm, graph_name=graph_name)


def roundtrip(trace: WorkTrace, iterations: int = 5, tmp_path=None):
    arrays = pack_trace(trace, iterations)
    if tmp_path is not None:
        # through an actual npz file, the on-disk representation
        path = tmp_path / "t.npz"
        np.savez_compressed(path, **arrays)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    return unpack_trace(arrays)


class TestRoundTrip:
    def test_basic_bit_identical(self, tmp_path):
        trace = make_trace()
        stored = roundtrip(trace, iterations=7, tmp_path=tmp_path)
        assert traces_equal(stored.trace, trace)
        assert stored.iterations == 7

    def test_empty_trace(self, tmp_path):
        trace = WorkTrace(algorithm="BFS", graph_name="empty", num_partitions=9)
        stored = roundtrip(trace, iterations=0, tmp_path=tmp_path)
        assert traces_equal(stored.trace, trace)
        assert stored.trace.records == []
        assert stored.trace.num_partitions == 9

    def test_miss_sentinels_and_hostile_floats(self, tmp_path):
        trace = WorkTrace(algorithm="CC", graph_name="g", num_partitions=2)
        for src, dst in [
            (-1.0, -1.0),                    # the "not measured" sentinel
            (float("nan"), float("inf")),
            (-0.0, 0.0),
            (5e-324, -1.7976931348623157e308),
        ]:
            trace.append(make_record(2, src_miss=src, dst_miss=dst))
        stored = roundtrip(trace, tmp_path=tmp_path).trace
        assert traces_equal(stored, trace)
        # spot-check the bit-level properties traces_equal relies on
        assert stored.records[0].src_miss == -1.0
        assert np.isnan(stored.records[1].src_miss)
        assert np.signbit(stored.records[2].src_miss)
        assert not np.signbit(stored.records[2].dst_miss)

    def test_repeated_records_stored_once_and_reshared(self, tmp_path):
        """The vectorized engine appends one shared record object per
        dense-step template; pricing builds one cost-matrix row per trace
        row.  The bundle must preserve that: the shared object is one
        stored row and comes back as one shared object."""
        rec = make_record(3)
        other = make_record(3, seed=99)
        trace = trace_of([rec, rec, other, rec], 3)
        assert len(trace.rows) == 2 and trace.rows[0] is rec and trace.rows[1] is other
        assert trace.steps == [0, 0, 1, 0]
        arrays = pack_trace(trace, 1)
        assert arrays["ints"].shape[0] == 2          # one row per record object
        assert list(arrays["record_index"]) == [0, 0, 1, 0]
        stored = roundtrip(trace, tmp_path=tmp_path).trace
        assert traces_equal(stored, trace)
        assert stored.steps == [0, 0, 1, 0] and len(stored.rows) == 2
        assert stored.records[0] is stored.records[1] is stored.records[3]
        assert stored.records[2] is not stored.records[0]

    def test_rows_are_shared_by_identity_not_by_content(self, tmp_path):
        """Two equal records that are different objects stay two rows:
        only the trace decides sharing, and it decides by identity."""
        rec = make_record(3)
        twin = make_record(3)
        assert records_equal(rec, twin) and rec is not twin
        trace = trace_of([rec, twin, rec], 3)
        arrays = pack_trace(trace, 1)
        assert list(arrays["record_index"]) == [0, 1, 0]
        assert arrays["ints"].shape[0] == 2
        stored = roundtrip(trace, tmp_path=tmp_path).trace
        assert traces_equal(stored, trace)
        assert stored.steps == [0, 1, 0]

    def test_labels_survive(self):
        stored = unpack_trace(
            pack_trace(make_trace(), 3, labels={"ordering": "vebo"})
        )
        assert stored.labels == {"ordering": "vebo"}

    def test_density_classes_all_roundtrip(self, tmp_path):
        trace = WorkTrace(algorithm="BFS", graph_name="g", num_partitions=2)
        for dens in DensityClass:
            trace.append(make_record(2, density=dens))
        stored = roundtrip(trace, tmp_path=tmp_path).trace
        assert [r.density for r in stored.records] == list(DensityClass)
        assert all(isinstance(r.density, DensityClass) for r in stored.records)

    def test_wrong_partition_shape_rejected(self):
        trace = make_trace(p=4)
        trace.append(make_record(5))  # wrong length
        with pytest.raises(CacheError, match="int64"):
            pack_trace(trace, 1)

    def test_corrupt_bundle_raises_cache_error(self):
        arrays = pack_trace(make_trace(), 1)
        del arrays["record_index"]
        with pytest.raises(CacheError, match="missing or corrupt"):
            unpack_trace(arrays)

    def test_parseable_but_incomplete_meta_raises_cache_error(self):
        """A bundle whose meta is valid JSON but misses a field must be a
        clean CacheError (load_trace treats it as a miss), not a crash."""
        arrays = pack_trace(make_trace(), 1)
        arrays["meta_json"] = np.array('{"kind": "trace"}')
        with pytest.raises(CacheError, match="missing or corrupt"):
            unpack_trace(arrays)

    @pytest.mark.parametrize("column,what", [(0, "kind"), (1, "direction"), (2, "density")])
    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_unknown_codes_rejected(self, column, what, bad):
        """Every stored code outside its table fails the bundle, negative
        codes included (indexing a table would alias them)."""
        arrays = pack_trace(make_trace(steps=3), 1)
        ints = np.asarray(arrays["ints"]).copy()
        ints[1, column] = bad
        arrays["ints"] = ints
        with pytest.raises(CacheError, match=f"unknown {what} code"):
            unpack_trace(arrays)

    def test_uncoded_kind_cannot_be_packed(self):
        trace = trace_of([make_record(2, kind="gather")], 2)
        with pytest.raises(CacheError, match="no trace code"):
            pack_trace(trace, 1)

    def test_wrong_member_shape_rejected(self):
        arrays = pack_trace(make_trace(steps=3), 1)
        arrays["miss"] = np.asarray(arrays["miss"])[:, :1]
        with pytest.raises(CacheError, match="shape or dtype"):
            unpack_trace(arrays)

    def test_out_of_range_record_index_rejected(self):
        """Corrupt index entries must fail the bundle, not alias records
        (negative values would silently wrap via Python indexing)."""
        for bad in (-1, 99):
            arrays = pack_trace(make_trace(steps=3), 1)
            index = np.asarray(arrays["record_index"]).copy()
            index[1] = bad
            arrays["record_index"] = index
            with pytest.raises(CacheError, match="out of range|corrupt"):
                unpack_trace(arrays)

    def test_adjacent_scalar_fields_do_not_collide(self):
        """('1','23') and ('12','3') must fingerprint differently — the
        delimiter regression that would alias two records into one."""
        a = make_record(2, seed=1)
        b = IterationRecord(
            kind=a.kind, direction=a.direction, density=a.density,
            active_vertices=1, active_edges=23,
            part_edges=a.part_edges, part_dsts=a.part_dsts,
            part_srcs=a.part_srcs, part_vertices=a.part_vertices,
        )
        c = IterationRecord(
            kind=a.kind, direction=a.direction, density=a.density,
            active_vertices=12, active_edges=3,
            part_edges=a.part_edges, part_dsts=a.part_dsts,
            part_srcs=a.part_srcs, part_vertices=a.part_vertices,
        )
        assert record_fingerprint(b) != record_fingerprint(c)
        trace = trace_of([b, c], 2)
        stored = unpack_trace(pack_trace(trace, 1)).trace
        assert traces_equal(stored, trace)
        assert stored.records[0] is not stored.records[1]


part_arrays = st.integers(min_value=0, max_value=2**62)
miss_floats = st.one_of(
    st.just(-1.0),
    st.floats(width=64, allow_nan=True, allow_infinity=True),
)


@st.composite
def work_traces(draw):
    p = draw(st.integers(min_value=1, max_value=5))
    steps = draw(st.integers(min_value=0, max_value=6))
    records = []
    for _ in range(steps):
        records.append(
            IterationRecord(
                kind=draw(st.sampled_from(["edgemap", "vertexmap"])),
                direction=draw(st.sampled_from(["push", "pull", "-"])),
                density=draw(st.sampled_from(sorted(DENSITY_CODES, key=str))),
                active_vertices=draw(st.integers(0, 2**40)),
                active_edges=draw(st.integers(0, 2**40)),
                part_edges=np.array(
                    draw(st.lists(part_arrays, min_size=p, max_size=p)),
                    dtype=np.int64,
                ),
                part_dsts=np.array(
                    draw(st.lists(part_arrays, min_size=p, max_size=p)),
                    dtype=np.int64,
                ),
                part_srcs=np.array(
                    draw(st.lists(part_arrays, min_size=p, max_size=p)),
                    dtype=np.int64,
                ),
                part_vertices=np.array(
                    draw(st.lists(part_arrays, min_size=p, max_size=p)),
                    dtype=np.int64,
                ),
                src_miss=draw(miss_floats),
                dst_miss=draw(miss_floats),
            )
        )
    # Some steps repeat an earlier step's record object, as an engine's
    # memo does.
    steps = [records[draw(st.integers(0, i))] for i in range(len(records))]
    return trace_of(
        steps, p,
        algorithm=draw(st.sampled_from(["PR", "BFS", "CC", "weird algo"])),
        graph_name=draw(st.text(min_size=0, max_size=12)),
    )


class TestHypothesisRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(work_traces(), st.integers(0, 2**31))
    def test_arbitrary_traces_roundtrip_bit_identically(self, trace, iterations):
        stored = unpack_trace(pack_trace(trace, iterations))
        assert traces_equal(stored.trace, trace)
        assert stored.trace.steps == trace.steps
        assert len(stored.trace.rows) == len(trace.rows)
        assert stored.iterations == iterations

    @settings(max_examples=25, deadline=None)
    @given(work_traces())
    def test_fingerprint_consistency(self, trace):
        """records_equal is an equivalence compatible with round-trips."""
        stored = unpack_trace(pack_trace(trace, 0)).trace
        for a, b in zip(trace.records, stored.records):
            assert records_equal(a, b)
            assert record_fingerprint(a) == record_fingerprint(b)


@pytest.fixture(scope="module")
def graph():
    return gen.zipf_powerlaw_graph(300, s=1.2, max_degree=20, seed=7, name="tg")


class TestTraceKey:
    def test_deterministic(self, graph):
        a = trace_key(graph, "PR", "vebo", 384, {"num_iterations": 5})
        b = trace_key(graph, "PR", "vebo", 384, {"num_iterations": 5})
        assert a == b

    def test_sensitive_to_every_execution_input(self, graph):
        other = gen.zipf_powerlaw_graph(300, s=1.2, max_degree=20, seed=8, name="tg")
        base = trace_key(graph, "PR", "vebo", 384, {"num_iterations": 5})
        variants = [
            trace_key(other, "PR", "vebo", 384, {"num_iterations": 5}),
            trace_key(graph, "BFS", "vebo", 384, {"num_iterations": 5}),
            trace_key(graph, "PR", "original", 384, {"num_iterations": 5}),
            trace_key(graph, "PR", "vebo", 4, {"num_iterations": 5}),
            trace_key(graph, "PR", "vebo", 384, {"num_iterations": 6}),
            trace_key(graph, "PR", "vebo", 384, {}),
        ]
        assert len({base, *variants}) == len(variants) + 1

    def test_name_does_not_matter(self, graph):
        """Content-addressed: renaming a graph must not invalidate its
        traces (same convention as every other derived artifact)."""
        from repro.graph.csr import Graph

        renamed = Graph(csr=graph.csr, csc=graph.csc, name="other-name")
        assert trace_key(graph, "PR", "vebo", 384, {}) == trace_key(
            renamed, "PR", "vebo", 384, {}
        )


class TestStoreIntegration:
    def test_save_load_through_cache(self, graph, tmp_path):
        cache = ArtifactCache(tmp_path)
        trace = make_trace()
        key = trace_key(graph, "PR", "original", 4, {})
        path = save_trace(key, trace, 5, cache=cache, labels={"ordering": "original"})
        assert path is not None and path.exists()
        stored = load_trace(key, cache=cache)
        assert stored is not None
        assert traces_equal(stored.trace, trace)
        assert stored.iterations == 5
        assert stored.labels["ordering"] == "original"

    def test_miss_returns_none(self, tmp_path):
        assert load_trace("0" * 40, cache=ArtifactCache(tmp_path)) is None

    def test_disabled_cache_is_noop(self, graph):
        key = trace_key(graph, "PR", "original", 4, {})
        assert save_trace(key, make_trace(), 1, cache=False) is None
        assert load_trace(key, cache=False) is None

    def test_bundle_is_a_manifest_and_five_members(self, graph, tmp_path):
        path = save_trace(trace_key(graph, "PR", "original", 4, {}), make_trace(), 1,
                          cache=ArtifactCache(tmp_path))
        assert len(list(path.iterdir())) == 6
        assert set(pack_trace(make_trace(), 1)) == {
            "record_index", "ints", "miss", "parts", "meta_json"}

    def test_mmap_replay_is_bit_identical_and_reshared(self, graph, tmp_path,
                                                       monkeypatch):
        cache = ArtifactCache(tmp_path)
        rec = make_record(4, src_miss=float("nan"), dst_miss=-0.0)
        trace = trace_of([rec, make_record(4, seed=5), rec], 4)
        key = trace_key(graph, "PR", "original", 4, {})
        save_trace(key, trace, 2, cache=cache)
        monkeypatch.setenv("REPRO_MMAP", "1")
        stored = load_trace(key, cache=cache).trace
        assert traces_equal(stored, trace)
        assert stored.records[0] is stored.records[2]
        assert not stored.records[1].part_edges.flags.writeable

    def test_clean_removes_traces(self, graph, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = trace_key(graph, "PR", "original", 4, {})
        save_trace(key, make_trace(), 1, cache=cache)
        assert cache.has("trace", key)
        removed = cache.clean(kind="trace")
        assert len(removed) == 1
        assert not cache.has("trace", key)


def _pack_thirteen_members(trace: WorkTrace, iterations: int) -> dict:
    """A bundle in the earlier 13-member layout (one member per column:
    string kinds and directions, int8 density codes)."""
    unique, index = [], []
    for rec in trace.records:
        for i, seen in enumerate(unique):
            if records_equal(seen, rec):
                index.append(i)
                break
        else:
            index.append(len(unique))
            unique.append(rec)
    arrays = {
        "record_index": np.array(index, dtype=np.int64),
        "kind": np.array([r.kind for r in unique]),
        "direction": np.array([r.direction for r in unique]),
        "density": np.array([DENSITY_CODES[r.density] for r in unique], dtype=np.int8),
    }
    for name in ("active_vertices", "active_edges"):
        arrays[name] = np.array([getattr(r, name) for r in unique], dtype=np.int64)
    for name in ("src_miss", "dst_miss"):
        arrays[name] = np.array([getattr(r, name) for r in unique], dtype=np.float64)
    for name in ("part_edges", "part_dsts", "part_srcs", "part_vertices"):
        arrays[name] = np.stack([getattr(r, name) for r in unique])
    arrays["meta_json"] = np.array(json.dumps({
        "kind": "trace", "algorithm": trace.algorithm, "graph_name": trace.graph_name,
        "num_partitions": trace.num_partitions, "iterations": iterations, "labels": {},
    }, sort_keys=True))
    return arrays


class TestUnreadableBundleIsEvicted:
    """A stored trace that fails to unpack is removed on load, so the next
    execution replaces it: one re-execution, then hits.  (Left in place,
    the incumbent survived every store and each later execution re-ran.)"""

    @pytest.fixture
    def run(self, graph, tmp_path):
        from repro.experiments.runner import execute

        cache = ArtifactCache(tmp_path)

        def run():
            return execute(graph, "BFS", "original", num_partitions=4,
                           traces=cache, backend="vectorized")

        run.cache = cache
        run.key = trace_key(graph, "BFS", "original", 4, {})
        return run

    def _replays(self, run, times: int) -> list[bool]:
        return [run().replayed for _ in range(times)]

    def test_corrupt_density_code_re_executes_once(self, run):
        fresh = run()
        assert not fresh.replayed
        path = run.cache.path_for("trace", run.key)
        manifest = json.loads((path / "manifest.json").read_text())
        member = path / manifest["arrays"]["ints"]
        ints = np.load(member)
        ints[0, 2] = 7
        np.save(member, ints)
        assert self._replays(run, 3) == [False, True, True]
        assert traces_equal(run().trace, fresh.trace)

    def test_refresh_replaces_a_loadable_wrong_trace(self, run, graph):
        """``traces build --refresh``: a flipped count still unpacks, so
        only the refresh can replace it, and later replays serve the
        re-executed trace."""
        from repro.experiments.runner import execute

        fresh = run()
        path = run.cache.path_for("trace", run.key)
        manifest = json.loads((path / "manifest.json").read_text())
        member = path / manifest["arrays"]["ints"]
        ints = np.load(member)
        ints[0, 4] += 99  # active_edges of the first unique record
        np.save(member, ints)
        assert not traces_equal(run().trace, fresh.trace)
        refreshed = execute(graph, "BFS", "original", num_partitions=4,
                            traces=run.cache, backend="vectorized", refresh=True)
        assert not refreshed.replayed
        replay = run()
        assert replay.replayed
        assert traces_equal(replay.trace, fresh.trace)

    def test_thirteen_member_bundle_upgrades_on_one_re_execution(self, run):
        fresh = run()
        run.cache.clean(kind="trace")
        run.cache.store("trace", run.key, _pack_thirteen_members(fresh.trace, fresh.iterations))
        assert len(list(run.cache.path_for("trace", run.key).iterdir())) == 14
        assert self._replays(run, 3) == [False, True, True]
        assert len(list(run.cache.path_for("trace", run.key).iterdir())) == 6
        assert traces_equal(run().trace, fresh.trace)
