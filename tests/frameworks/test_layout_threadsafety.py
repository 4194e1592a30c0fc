"""Regression: the shared-layout cache must be safe to hit concurrently.

``vectorized._layout_for`` memoizes one ``_SharedLayout`` per
``(graph, boundaries)``.  Before the lock was added, the check-then-insert
raced: two threads constructing engines for the same graph could each
miss, build *duplicate* layouts and clobber each other's insert — from
then on engines silently stopped sharing record memos and band plans,
defeating the cache for the graph's lifetime (and, for the parallel
backend, re-deriving layouts mid-flight).  These tests hammer
the cache from a barrier-synchronized thread pool while spying on the
construction count: exactly one build per key, one shared object, no
torn or duplicate layouts, no matter how the threads interleave.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.frameworks import vectorized as vec_mod
from repro.frameworks.parallel import ParallelEngine
from repro.frameworks.trace import WorkTrace
from repro.frameworks.vectorized import VectorizedEngine, _layout_for
from repro.graph import generators as gen
from repro.partition.algorithm1 import chunk_boundaries

HAMMER_THREADS = 16
HAMMER_ROUNDS = 30


@pytest.fixture
def build_spy(monkeypatch):
    """Count ``_SharedLayout`` constructions without changing behavior."""
    real = vec_mod._SharedLayout
    counts: dict[str, int] = {"builds": 0}
    lock = threading.Lock()

    class Spied(real):
        def __init__(self, graph, boundaries):
            with lock:
                counts["builds"] += 1
            super().__init__(graph, boundaries)

    monkeypatch.setattr(vec_mod, "_SharedLayout", Spied)
    return counts


def _hammer(fn, threads=HAMMER_THREADS):
    """Run ``fn`` on every thread at once (barrier start) and collect."""
    barrier = threading.Barrier(threads)

    def go():
        barrier.wait()
        return fn()

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return [f.result() for f in [pool.submit(go) for _ in range(threads)]]


def test_concurrent_layout_for_builds_once(build_spy):
    graph = gen.zipf_powerlaw_graph(200, s=1.1, max_degree=25, seed=5, name="ts1")
    boundaries = chunk_boundaries(graph.in_degrees(), 16)
    for _ in range(HAMMER_ROUNDS):
        layouts = _hammer(lambda: _layout_for(graph, boundaries))
        assert all(lay is layouts[0] for lay in layouts)
    assert build_spy["builds"] == 1


def test_concurrent_engine_construction_shares_layout(build_spy):
    """The real construction path: one engine per thread, both fast
    backends at once, all sharing one layout build."""
    graph = gen.zipf_powerlaw_graph(200, s=1.1, max_degree=25, seed=6, name="ts2")
    boundaries = chunk_boundaries(graph.in_degrees(), 16)

    def build():
        trace = WorkTrace(algorithm="ts", graph_name="ts2", num_partitions=16)
        cls = VectorizedEngine if threading.get_ident() % 2 else ParallelEngine
        return cls(graph, boundaries, trace)._shared

    shareds = _hammer(build)
    assert all(s is shareds[0] for s in shareds)
    assert build_spy["builds"] == 1


def test_distinct_keys_build_distinct_layouts(build_spy):
    """One build per (graph, boundaries): different partitionings of the
    same graph, and the same partitioning of a different graph, each get
    exactly one layout even under concurrency."""
    g1 = gen.zipf_powerlaw_graph(200, s=1.1, max_degree=25, seed=7, name="ts3")
    g2 = gen.zipf_powerlaw_graph(200, s=1.1, max_degree=25, seed=9, name="ts4")
    keys = [
        (g1, chunk_boundaries(g1.in_degrees(), 8)),
        (g1, chunk_boundaries(g1.in_degrees(), 16)),
        (g2, chunk_boundaries(g2.in_degrees(), 8)),
    ]
    results = _hammer(lambda: [_layout_for(g, b) for g, b in keys])
    for i in range(len(keys)):
        assert all(r[i] is results[0][i] for r in results)
    assert len({id(lay) for lay in results[0]}) == len(keys)
    assert build_spy["builds"] == len(keys)


def test_band_plan_cache_hammer():
    """The parallel backend's per-layout band-plan cache (guarded by the
    layout's own lock) must also build coherently under contention."""
    graph = gen.zipf_powerlaw_graph(300, s=1.1, max_degree=30, seed=12, name="ts5")
    boundaries = chunk_boundaries(graph.in_degrees(), 24)
    trace = WorkTrace(algorithm="ts", graph_name="ts5", num_partitions=24)
    eng = ParallelEngine(graph, boundaries, trace, workers=4, min_work=0)
    for workers in (2, 4, 8):
        plans = _hammer(lambda w=workers: eng._band_plan(w))
        assert all(p is plans[0] for p in plans)
