"""Backend registry, selection plumbing and reduction dtype contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.common import make_engine
from repro.errors import SimulationError
from repro.frameworks.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    DEFAULT_BACKEND,
    EngineBackend,
    available_backends,
    get_backend,
    make_engine_backend,
    register_backend,
    resolve_backend,
)
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.frameworks.parallel import WORKERS_ENV_VAR, ParallelEngine
from repro.frameworks import vectorized as vec_mod
from repro.frameworks.trace import WorkTrace, records_equal
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph import generators as gen
from repro.partition.algorithm1 import chunk_boundaries

from oracles import ReferenceEngine


@pytest.fixture()
def graph():
    return gen.zipf_powerlaw_graph(120, s=1.2, max_degree=20, seed=1, name="bk")


class TestSelection:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert DEFAULT_BACKEND == "vectorized"
        assert resolve_backend() == "vectorized"
        assert get_backend() is VectorizedEngine

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert resolve_backend() == "vectorized"
        assert get_backend() is VectorizedEngine
        monkeypatch.setenv(BACKEND_ENV_VAR, "parallel")
        assert resolve_backend() == "parallel"
        assert get_backend() is ParallelEngine

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "parallel")
        assert resolve_backend("vectorized") == "vectorized"

    def test_empty_env_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "")
        assert resolve_backend() == DEFAULT_BACKEND

    def test_unknown_backend_raises(self, monkeypatch):
        with pytest.raises(SimulationError, match="unknown engine backend"):
            resolve_backend("turbo")
        monkeypatch.setenv(BACKEND_ENV_VAR, "turbo")
        with pytest.raises(SimulationError, match="unknown engine backend"):
            resolve_backend()

    def test_available_backends(self):
        assert available_backends() == sorted(BACKENDS)
        assert {"reference", "vectorized", "parallel"} <= set(available_backends())

    def test_register_duplicate_raises(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_backend("vectorized", VectorizedEngine)

    def test_all_backends_satisfy_protocol(self, graph):
        boundaries = chunk_boundaries(graph.in_degrees(), 4)
        for name in ("reference", "vectorized", "parallel"):
            trace = WorkTrace(algorithm="x", graph_name="g", num_partitions=4)
            eng = make_engine_backend(graph, boundaries, trace, backend=name)
            assert isinstance(eng, EngineBackend)
        assert issubclass(ParallelEngine, VectorizedEngine)

    def test_make_engine_threads_backend(self, graph, monkeypatch):
        assert isinstance(
            make_engine(graph, 4, "PR", backend="vectorized"), VectorizedEngine
        )
        assert type(make_engine(graph, 4, "PR", backend="reference")) is ReferenceEngine
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        assert isinstance(make_engine(graph, 4, "PR"), VectorizedEngine)
        monkeypatch.setenv(BACKEND_ENV_VAR, "parallel")
        assert isinstance(make_engine(graph, 4, "PR"), ParallelEngine)

    def test_registry_construction_reads_worker_env(self, graph, monkeypatch):
        """The uniform (graph, boundaries, trace) construction path must
        still pick up REPRO_PARALLEL_WORKERS."""
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        eng = make_engine(graph, 4, "PR", backend="parallel")
        assert eng._workers == 5


class TestReduceDtypeContract:
    """Every backend reduces in float64, even when a gather returns
    float32.

    ``np.ufunc.at`` into a float64 accumulator upcasts float32 values
    element by element, but the segment kernel would reduce a float32
    stream at float32 precision and diverge; the vectorized engine casts
    each gather once, where its values come back.  The add sums are chosen
    so float32 accumulation visibly loses bits.
    """

    ENGINES = {
        "reference": ReferenceEngine,
        "vectorized": VectorizedEngine,
        "parallel": lambda g, b, t: ParallelEngine(g, b, t, workers=4, min_work=0),
    }

    @pytest.mark.parametrize("frontier_kind", ["full", "partial"])
    @pytest.mark.parametrize("direction", ["pull", "push"])
    @pytest.mark.parametrize("reduce", ["add", "min", "or"])
    @pytest.mark.parametrize("backend", list(ENGINES))
    def test_float32_gather_edgemap_matches_float64_math(
        self, graph, backend, reduce, direction, frontier_kind
    ):
        """End to end, through every kernel a step can take: ``bincount``,
        the segment kernel (dense, and sorted pull), ``ufunc.at``
        (unordered push) and the parallel bands, on the oracle too."""
        n = graph.num_vertices
        # 1.0 + 2**-30 + 2**-30 is exact in float64; a float32 running sum
        # drops every 2**-30 added onto a 1.0.
        base = np.full(n, 2**-30, dtype=np.float32)
        base[::5] = 1.0
        captured = {}

        def gather(srcs, dsts, st):
            return base[srcs]  # float32 out of the gather

        def apply(touched, reduced, st):
            assert reduced.dtype == np.float64
            captured["touched"] = touched
            captured["reduced"] = reduced.copy()
            return np.zeros(touched.size, dtype=bool)

        identity = {"add": 0.0, "min": np.inf, "or": -np.inf}[reduce]
        op = EdgeOp(gather=gather, reduce=reduce, apply=apply, identity=identity)
        frontier = (Frontier.all_vertices(n) if frontier_kind == "full"
                    else Frontier.from_ids(np.arange(0, n, 3), n))
        boundaries = chunk_boundaries(graph.in_degrees(), 16)
        eng = self.ENGINES[backend](graph, boundaries, WorkTrace("f32", graph.name, 16))
        eng.edgemap(frontier, op, {}, direction=direction)

        srcs = np.repeat(np.arange(n), graph.out_degrees())
        active = frontier.mask[srcs]
        srcs, dsts = srcs[active], graph.csr.adj[active]
        ufunc = {"add": np.add, "min": np.minimum, "or": np.maximum}[reduce]
        expected = np.full(n, identity)
        ufunc.at(expected, dsts, base[srcs].astype(np.float64))
        touched = np.unique(dsts)
        assert np.array_equal(captured["touched"], touched)
        assert np.array_equal(captured["reduced"], expected[touched])
        if reduce == "add":
            lossy = np.zeros(n, dtype=np.float32)
            np.add.at(lossy, dsts, base[srcs])
            assert not np.array_equal(lossy[touched], expected[touched])  # bits were lost


class TestRecordMemo:
    """The vectorized engine's per-layout memo of finished step records
    (``VectorizedEngine._append_record``), keyed on what fixes a step's
    streams: direction, active set and pull candidates."""

    OP = EdgeOp(
        gather=lambda s, d, st: s.astype(np.float64),
        reduce="min",
        apply=lambda t, r, st: np.ones(t.size, dtype=bool),
        identity=np.inf,
    )

    @staticmethod
    def _graph():
        # A graph of its own: the memo lives on the per-graph shared layout.
        return gen.zipf_powerlaw_graph(4000, s=1.2, max_degree=40, seed=7, name="memo")

    @staticmethod
    def _engines(graph, cls=VectorizedEngine):
        """An engine of ``cls`` and the oracle, on one 8-chunk layout."""
        bounds = chunk_boundaries(graph.in_degrees(), 8)
        return (cls(graph, bounds, WorkTrace("t", graph.name, 8)),
                ReferenceEngine(graph, bounds, WorkTrace("t", graph.name, 8)))

    def _step(self, engines, frontier, direction, candidates=None):
        """Run one step on every engine; return each one's new record."""
        for eng in engines:
            eng.edgemap(frontier, self.OP, {}, direction=direction,
                        dst_candidates=candidates)
        return [eng.trace.records[-1] for eng in engines]

    @pytest.mark.parametrize("cls", [VectorizedEngine, ParallelEngine])
    def test_same_step_appends_the_identical_record(self, cls):
        graph = self._graph()
        n = graph.num_vertices
        engine, oracle = self._engines(graph, cls)
        rng = np.random.default_rng(3)
        frontier = Frontier.from_mask(rng.random(n) < 0.3)
        candidates = rng.permutation(n)[: n // 2]
        for direction, cands in (("push", None), ("pull", None), ("pull", candidates),
                                 ("pull", np.sort(candidates))):
            first, want = self._step((engine, oracle), frontier, direction, cands)
            assert records_equal(first, want)
            # A new engine on the same graph shares the layout, hence the memo.
            other, _ = self._engines(graph, cls)
            again = self._step((engine, other), Frontier.from_mask(frontier.mask.copy()),
                               direction, None if cands is None else cands.copy())
            assert all(rec is first for rec in again)
        # Full frontiers: every dense step after the first is the same object.
        full = Frontier.all_vertices(n)
        for direction in ("push", "pull"):
            recs = [self._step((engine,), full, direction)[0] for _ in range(3)]
            assert recs[1] is recs[0] and recs[2] is recs[0]
        assert len(engine._shared.records) == 6

    def test_one_vertex_apart_or_other_candidates_miss(self):
        graph = self._graph()
        n = graph.num_vertices
        engines = self._engines(graph)
        rng = np.random.default_rng(4)
        mask = rng.random(n) < 0.2
        grown = mask.copy()
        grown[np.flatnonzero(~mask & (graph.out_degrees() > 0))[0]] = True
        candidates = rng.permutation(n)[: n // 3]
        steps = [
            (Frontier.from_mask(mask), "push", None),
            (Frontier.from_mask(grown), "push", None),
            (Frontier.from_mask(mask), "pull", None),
            (Frontier.from_mask(mask), "pull", candidates),
            (Frontier.from_mask(mask), "pull", candidates[::-1].copy()),
            (Frontier.from_mask(mask), "pull", candidates[1:]),
        ]
        records = []
        for frontier, direction, cands in steps:
            record, want = self._step(engines, frontier, direction, cands)
            assert records_equal(record, want)
            records.append(record)
        assert len({id(rec) for rec in records}) == len(steps)
        assert len(engines[0]._shared.records) == len(steps)
        # The reversed candidates reach the same destinations in another
        # order: equal counters, other sampled streams.
        assert np.array_equal(records[3].part_edges, records[4].part_edges)
        assert records[3].src_miss != records[4].src_miss

    def test_fifo_budget_evicts_oldest_entry(self, monkeypatch):
        graph = self._graph()
        n = graph.num_vertices
        engine, oracle = self._engines(graph)
        masks = [np.zeros(n, dtype=bool) for _ in range(3)]
        for i, mask in enumerate(masks):
            mask[i::7] = True
        shared = engine._shared
        self._step((engine,), Frontier.from_mask(masks[0]), "push")
        [(key0, rec0)] = shared.records.items()
        entry = vec_mod._entry_bytes(key0, rec0)
        assert shared.record_bytes == entry
        # Room for two entries of this size: the third insert evicts the first.
        monkeypatch.setattr(VectorizedEngine, "_RECORD_MEMO_BUDGET", 2 * entry)
        for mask in masks[1:]:
            self._step((engine,), Frontier.from_mask(mask), "push")
        assert key0 not in shared.records and len(shared.records) == 2
        assert shared.record_bytes == sum(
            vec_mod._entry_bytes(k, r) for k, r in shared.records.items())
        kept = list(shared.records.values())
        # The evicted step is accounted afresh, to the same bits; the
        # newest entries stay.
        rebuilt, want = self._step((engine, oracle), Frontier.from_mask(masks[0]), "push")
        assert rebuilt is not rec0 and records_equal(rebuilt, rec0)
        assert records_equal(rebuilt, want)
        assert list(shared.records.values()) == [kept[1], rebuilt]
