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
from repro.frameworks.trace import WorkTrace
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph import generators as gen
from repro.partition.algorithm1 import chunk_boundaries

from oracles import ReferenceEngine, stream_miss_reference


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


class TestStreamMissMemo:
    """The vectorized engine's per-layout memo of sampled stream-miss
    measurements (``VectorizedEngine._stream_miss_pair``)."""

    @staticmethod
    def _engine():
        # A graph of its own: the memo lives on the per-graph shared layout.
        g = gen.zipf_powerlaw_graph(4000, s=1.2, max_degree=40, seed=7, name="memo")
        return VectorizedEngine(g, chunk_boundaries(g.in_degrees(), 8),
                                WorkTrace("t", g.name, 8))

    @staticmethod
    def _streams():
        """Two streams of one length whose first and last 16 elements agree
        and whose middles differ."""
        rng = np.random.default_rng(0)
        ends = np.arange(16, dtype=np.int64)
        middle = np.arange(2000, dtype=np.int64) % 500
        a = np.concatenate([ends, middle, ends])
        b = np.concatenate([ends, rng.integers(0, 4000, 2000), ends])
        return a, b

    def test_equal_ends_different_middles_measured_separately(self):
        engine = self._engine()
        a, b = self._streams()
        n = engine.graph.num_vertices
        first = engine._stream_miss_pair(a, a[::-1].copy())
        second = engine._stream_miss_pair(b, b[::-1].copy())
        assert first == stream_miss_reference(a, a[::-1], n)
        assert second == stream_miss_reference(b, b[::-1], n)
        assert first != second
        # Both are stored under the one shared key and replay exactly.
        assert [len(v) for v in engine._shared.miss_memo.values()] == [2]
        assert engine._stream_miss_pair(a.copy(), a[::-1].copy()) == first
        assert engine._stream_miss_pair(b.copy(), b[::-1].copy()) == second
        assert engine._shared.miss_memo_bytes == 2 * (a.nbytes + b.nbytes)

    def test_fifo_budget_evicts_oldest_stream(self, monkeypatch):
        engine = self._engine()
        a, b = self._streams()
        monkeypatch.setattr(VectorizedEngine, "_MISS_MEMO_BUDGET", 2 * a.nbytes)
        engine._stream_miss_pair(a, a)
        engine._stream_miss_pair(b, b)
        shared = engine._shared
        assert shared.miss_memo_bytes == 2 * b.nbytes
        [(stored, _, _)] = [entry for v in shared.miss_memo.values() for entry in v]
        assert np.array_equal(stored, b) and list(shared.miss_memo_order) == [
            next(iter(shared.miss_memo))]
