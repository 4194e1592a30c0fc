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
    """`VectorizedEngine._reduce_at` must reduce in the accumulator's dtype.

    ``np.ufunc.at`` silently upcasts float32 values element-by-element;
    segment kernels would otherwise reduce whole float32 segments at
    float32 precision and diverge.  The explicit cast pins the contract
    — these sums are chosen so float32 accumulation visibly loses bits.
    """

    # 1.0 + 2**-30 + 2**-30: representable in float64 accumulation, lost
    # entirely if the two small values are first rounded into a float32
    # running sum.
    VALS32 = np.array([1.0, 2**-30, 2**-30], dtype=np.float32)

    def test_add_accumulates_in_float64(self):
        acc = np.zeros(4, dtype=np.float64)
        VectorizedEngine._reduce_at("add", acc, np.array([2, 2, 2]), self.VALS32)
        expected = np.float64(1.0) + np.float64(np.float32(2**-30)) * 2
        assert acc[2] == expected
        assert acc[2] != np.float64(np.float32(1.0))  # bits were not lost

    def test_min_and_or_cast_explicitly(self):
        acc = np.full(3, np.inf)
        VectorizedEngine._reduce_at(
            "min", acc, np.array([1, 1]), np.array([3.0, 2.0], dtype=np.float32)
        )
        assert acc[1] == 2.0 and acc.dtype == np.float64
        acc = np.full(3, -np.inf)
        VectorizedEngine._reduce_at(
            "or", acc, np.array([0, 0]), np.array([0.0, 1.0], dtype=np.float32)
        )
        assert acc[0] == 1.0 and acc.dtype == np.float64

    @pytest.mark.parametrize("backend", ["reference", "vectorized", "parallel"])
    def test_float32_gather_edgemap_matches_float64_math(self, graph, backend):
        """End to end: a float32 gather produces the float64-accumulated
        sums on every backend and on the oracle (previously uncovered: the
        silent upcast was an accident of ufunc.at, not a tested contract)."""
        n = graph.num_vertices
        base = np.full(n, np.float32(2**-30), dtype=np.float32)

        captured = {}

        def gather(srcs, dsts, st):
            return base[srcs]  # float32 out of the gather

        def apply(touched, reduced, st):
            assert reduced.dtype == np.float64
            captured["touched"] = touched
            captured["reduced"] = reduced.copy()
            return np.zeros(touched.size, dtype=bool)

        op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)
        eng = make_engine(graph, 4, "T", backend=backend)
        eng.edgemap(Frontier.all_vertices(n), op, {}, direction="pull")
        in_degs = graph.in_degrees()[captured["touched"]]
        expected = in_degs.astype(np.float64) * np.float64(np.float32(2**-30))
        assert np.array_equal(captured["reduced"], expected)


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
        from repro.frameworks.engine import _stream_miss

        engine = self._engine()
        a, b = self._streams()
        n = engine.graph.num_vertices
        first = engine._stream_miss_pair(a, a[::-1].copy())
        second = engine._stream_miss_pair(b, b[::-1].copy())
        assert first == _stream_miss(a, a[::-1], n)
        assert second == _stream_miss(b, b[::-1], n)
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
