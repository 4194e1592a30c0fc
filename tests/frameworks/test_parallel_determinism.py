"""Determinism suite for the ``parallel`` backend.

The conformance suite proves the parallel backend matches the oracle
engine; this suite pins the stronger operational property the backend
advertises: **the worker count is not observable**.  Running the same
step sequence with 1, 2, 4 or 8 chunk workers — or running it twenty
times in a row at the same worker count — must produce *byte-identical*
state arrays, frontiers and trace accounting, bit for bit, even when the
values flowing through the reduction kernels are hostile floats (NaN,
signed zeros, cancellation-prone magnitudes, overflow-to-inf sums).

Byte identity is checked through digests of the raw array bytes (dtype
tagged), not ``np.allclose`` — a single flipped sign bit on a zero, or a
NaN payload swap, fails the test.

The suite also pins the scheduling-visible unit behavior that bit-level
runs can't: the per-chunk wall-clock measurements land in the trace's
``meta`` side channel without entering trace identity, the band plan
tears no Algorithm-1 accounting chunk, and an inconsistent vertexmap
filter (mask from one chunk, ``None`` from another) is rejected rather
than silently mangled.
"""

from __future__ import annotations

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.algorithms import ALGORITHMS
from repro.errors import SimulationError
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import DensityClass, Frontier
from repro.frameworks.parallel import (
    MIN_WORK_ENV_VAR,
    WORKERS_ENV_VAR,
    ParallelEngine,
    resolve_min_work,
    resolve_workers,
)
from repro.frameworks.trace import WorkTrace, record_fingerprint, traces_equal
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph import generators as gen
from repro.graph.csr import Graph
from repro.partition.algorithm1 import chunk_boundaries

from oracles import ReferenceEngine

WORKER_COUNTS = [1, 2, 4, 8]

# Hostile floats are the point: NaN through min/max kernels raises
# RuntimeWarning inside pool threads, where a test-local np.errstate
# (thread-local by design) cannot reach.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# ----------------------------------------------------------------------
# digests: byte identity, not numeric closeness
# ----------------------------------------------------------------------

def _update_array(h, a: np.ndarray) -> None:
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(np.ascontiguousarray(a).tobytes())


def state_digest(state: dict) -> str:
    h = hashlib.sha256()
    for k in sorted(state):
        v = state[k]
        if not isinstance(v, np.ndarray):
            continue  # algorithm-private memo entries (e.g. BP's _tw cache)
        h.update(k.encode())
        _update_array(h, v)
    return h.hexdigest()


def frontier_digest(frontier: Frontier) -> str:
    h = hashlib.sha256()
    _update_array(h, frontier.mask)
    _update_array(h, frontier.ids)
    return h.hexdigest()


def trace_digest(trace: WorkTrace) -> str:
    h = hashlib.sha256()
    for rec in trace.records:
        h.update(record_fingerprint(rec))
    return h.hexdigest()


def result_digest(result) -> str:
    h = hashlib.sha256()
    h.update(str(result.iterations).encode())
    for k in sorted(result.values):
        h.update(k.encode())
        _update_array(h, result.values[k])
    h.update(trace_digest(result.trace).encode())
    return h.hexdigest()


# ----------------------------------------------------------------------
# hostile floats
# ----------------------------------------------------------------------

# Cancellation pairs (1e16 + -1e16), signed zeros, subnormals, values that
# overflow to inf when summed, and NaN: any reassociation of the additions
# or reordering of min/max scans shows up as a byte difference.
HOSTILE_VALUES = [
    np.nan, 0.0, -0.0, 1.0, -1.0, 1e-308, -1e-308, 1e308, -1e308,
    1e16, -1e16, 1.0 + 2**-52, 0.1, 7.5,
]

_hostile = st.sampled_from(HOSTILE_VALUES)


@st.composite
def hostile_case(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    m = draw(st.integers(min_value=1, max_value=240))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), n, name="det"
    )
    p = draw(st.integers(min_value=1, max_value=min(12, n)))
    reduce = draw(st.sampled_from(["add", "min", "or"]))
    identity = {"add": 0.0, "min": np.inf, "or": -np.inf}[reduce]
    if draw(st.booleans()):
        identity = draw(_hostile)  # non-standard: the fallback kernel
    direction = draw(st.sampled_from(["push", "pull"]))
    values = rng.choice(draw(st.lists(_hostile, min_size=2, max_size=8)), size=n)
    return graph, p, reduce, identity, direction, values


def _run_dense_edgemap(build_engine, graph, p, reduce, identity, values, direction):
    """One dense edgemap + one dense filtering vertexmap; returns digests."""
    n = graph.num_vertices

    def gather(srcs, dsts, st_):
        return st_["vals"][srcs]

    def apply(touched, reduced, st_):
        st_["seen"][touched] = reduced
        return np.ones(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce=reduce, apply=apply, identity=identity)
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    trace = WorkTrace(algorithm="det", graph_name="det", num_partitions=p)
    eng = build_engine(graph, boundaries, trace)
    state = {"vals": values.copy(), "seen": np.zeros(n)}
    with np.errstate(all="ignore"):  # hostile sums overflow / spawn NaN
        out = eng.edgemap(Frontier.all_vertices(n), op, state, direction=direction)

        def fn(ids, st_):
            return np.isfinite(st_["seen"][ids])

        out2 = eng.vertexmap(Frontier.all_vertices(n), fn, state)
    return (
        state_digest(state),
        frontier_digest(out),
        frontier_digest(out2),
        trace_digest(trace),
    )


@given(case=hostile_case())
@settings(max_examples=80, deadline=None)
def test_worker_count_is_unobservable(case):
    """Reference, then parallel at 1/2/4/8 workers: all five runs produce
    byte-identical state, frontiers and trace accounting."""
    graph, p, reduce, identity, direction, values = case
    digests = [
        _run_dense_edgemap(
            ReferenceEngine, graph, p, reduce, identity, values, direction
        )
    ]
    for w in WORKER_COUNTS:
        digests.append(
            _run_dense_edgemap(
                lambda g, b, t, w=w: ParallelEngine(g, b, t, workers=w, min_work=0),
                graph, p, reduce, identity, values, direction,
            )
        )
    assert len(set(digests)) == 1, digests


_CLASS_RANGES = {
    DensityClass.DENSE: (0.5, np.inf),
    DensityClass.MEDIUM: (0.05, 0.5),
    DensityClass.SPARSE: (0.0, 0.05),
}


@st.composite
def partial_push_case(draw):
    """A hostile-float push step from a frontier of a chosen Table II
    class that is never every vertex: a prefix of a random vertex order
    whose density falls in the class."""
    graph, p, reduce, identity, _, values = draw(hostile_case())
    n, m = graph.num_vertices, graph.num_edges
    density_class = draw(st.sampled_from(list(DensityClass)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    order = rng.permutation(n)
    sizes = np.arange(1, n)
    density = (sizes + np.cumsum(graph.out_degrees()[order])[:-1]) / m
    lo, hi = _CLASS_RANGES[density_class]
    fits = sizes[(density >= lo) & (density < hi)]
    assume(fits.size > 0)
    mask = np.zeros(n, dtype=bool)
    mask[order[: fits[rng.integers(fits.size)]]] = True
    frontier = Frontier.from_mask(mask)
    assert frontier.classify(graph) is density_class
    return graph, p, reduce, identity, values, frontier


@given(case=partial_push_case())
@settings(max_examples=80, deadline=None)
def test_partial_push_matches_the_oracle(case):
    """One push step from a partial frontier of each density class (the
    dense class compresses the CSR adjacency by its sources' flags, the
    others gather rows): the oracle, the vectorized engine and the
    parallel backend at 4 workers agree on the record, the next frontier
    and the state, bit for bit."""
    graph, p, reduce, identity, values, frontier = case
    n = graph.num_vertices

    def gather(srcs, dsts, st_):
        return st_["vals"][srcs]

    def apply(touched, reduced, st_):
        st_["seen"][touched] = reduced
        return ~np.isnan(reduced)

    op = EdgeOp(gather=gather, reduce=reduce, apply=apply, identity=identity)
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    digests = []
    for build in (
        ReferenceEngine,
        VectorizedEngine,
        lambda g, b, t: ParallelEngine(g, b, t, workers=4, min_work=0),
    ):
        trace = WorkTrace(algorithm="det", graph_name="det", num_partitions=p)
        state = {"vals": values.copy(), "seen": np.zeros(n)}
        with np.errstate(all="ignore"):
            out = build(graph, boundaries, trace).edgemap(
                frontier, op, state, direction="push"
            )
        digests.append((state_digest(state), frontier_digest(out), trace_digest(trace)))
    assert len(set(digests)) == 1, digests


@pytest.mark.parametrize("reduce,identity", [("min", np.inf), ("or", -np.inf)])
@pytest.mark.parametrize("direction", ["push", "pull"])
def test_signed_zero_tie_breaks_like_the_oracle(reduce, identity, direction):
    """Regression: on a segment of nine or more values, numpy's vectorized
    min/max reduce broke a ``+0.0``/``-0.0`` tie in lane order, while the
    oracle's sequential fold keeps the later zero."""
    n = 10
    sources = np.arange(1, n)  # nine in-edges into vertex 0, ascending
    graph = Graph.from_edges(sources, np.zeros_like(sources), n, name="det")
    values = np.zeros(n)
    values[n - 1] = -0.0  # the last of the nine zeros is negative
    digests = [
        _run_dense_edgemap(build, graph, 1, reduce, identity, values, direction)
        for build in (
            ReferenceEngine,
            VectorizedEngine,
            lambda g, b, t: ParallelEngine(g, b, t, workers=2, min_work=0),
        )
    ]
    assert len(set(digests)) == 1, digests


@pytest.mark.parametrize("algo", ["PR", "BP", "CC", "SPMV", "PRD"])
def test_algorithm_worker_count_invariance(monkeypatch, algo):
    """Whole algorithms through the registry + env knob: every worker
    count digests identically to the reference backend."""
    graph = gen.zipf_powerlaw_graph(400, s=1.1, max_degree=50, seed=21, name="det-pl")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
    kwargs: dict = {"num_partitions": 16}
    if algo in ("PR", "BP"):
        kwargs["num_iterations"] = 3
    ref = result_digest(ALGORITHMS[algo](graph, backend="reference", **kwargs))
    for w in WORKER_COUNTS:
        monkeypatch.setenv(WORKERS_ENV_VAR, str(w))
        got = result_digest(ALGORITHMS[algo](graph, backend="parallel", **kwargs))
        assert got == ref, (algo, w)


def test_repeated_runs_never_flake():
    """>= 20 identical runs at 4 workers: thread scheduling varies freely
    between runs, the digests must not."""
    graph = gen.zipf_powerlaw_graph(300, s=1.05, max_degree=40, seed=33, name="flake")
    rng = np.random.default_rng(1)
    values = rng.choice(np.array(HOSTILE_VALUES), size=graph.num_vertices)
    digests = set()
    for rep in range(20):
        for direction in ("push", "pull"):
            digests.add(
                (
                    direction,
                    _run_dense_edgemap(
                        lambda g, b, t: ParallelEngine(g, b, t, workers=4, min_work=0),
                        graph, 24, "add", 0.0, values, direction,
                    ),
                )
            )
    assert len(digests) == 2, "a repeated run produced different bytes"


# ----------------------------------------------------------------------
# unit behavior: knobs, band plan, meta channel, vertexmap contract
# ----------------------------------------------------------------------

def _make_parallel(graph, p=16, **kw):
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    trace = WorkTrace(algorithm="unit", graph_name=graph.name, num_partitions=p)
    return ParallelEngine(graph, boundaries, trace, **kw), trace


@pytest.fixture(scope="module")
def unit_graph():
    return gen.zipf_powerlaw_graph(250, s=1.1, max_degree=30, seed=8, name="unit")


def test_knob_resolution(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
    monkeypatch.delenv(MIN_WORK_ENV_VAR, raising=False)
    assert resolve_workers(3) == 3
    assert resolve_workers() >= 1
    assert resolve_min_work(17) == 17
    assert resolve_min_work(-5) == 0
    monkeypatch.setenv(WORKERS_ENV_VAR, "6")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "123")
    assert resolve_workers() == 6
    assert resolve_min_work() == 123
    assert resolve_workers(2) == 2  # explicit argument wins over env
    monkeypatch.setenv(WORKERS_ENV_VAR, "0")
    with pytest.raises(SimulationError):
        resolve_workers()
    monkeypatch.setenv(WORKERS_ENV_VAR, "nope")
    with pytest.raises(SimulationError):
        resolve_workers()


def test_band_plan_respects_partition_boundaries(unit_graph):
    eng, _ = _make_parallel(unit_graph, p=16, workers=4, min_work=0)
    pts = eng._band_plan(4)
    bounds = set(int(b) for b in eng.boundaries)
    assert int(pts[0]) == 0 and int(pts[-1]) == unit_graph.num_vertices
    assert all(int(x) in bounds for x in pts)
    assert np.all(np.diff(pts) > 0)
    assert pts.size - 1 <= 4
    # Cached: same object on the second ask, per-count plans distinct.
    assert eng._band_plan(4) is pts
    assert eng._band_plan(2) is not pts


def test_chunk_timings_meta_channel(unit_graph):
    """Parallel steps record per-chunk wall-clock into trace.meta; the
    bands tile the vertex space, the edge counts sum to m — and none of
    it enters trace identity."""
    n = unit_graph.num_vertices
    eng, trace = _make_parallel(unit_graph, p=16, workers=4, min_work=0)

    def gather(srcs, dsts, st_):
        return st_["x"][srcs]

    def apply(touched, reduced, st_):
        return np.zeros(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)
    state = {"x": np.ones(n)}
    eng.edgemap(Frontier.all_vertices(n), op, state, direction="pull")
    eng.vertexmap(Frontier.all_vertices(n), lambda ids, st_: None, state)

    chunks = trace.meta["parallel_chunks"]
    assert [c["kind"] for c in chunks] == ["edgemap", "vertexmap"]
    for c in chunks:
        # "workers" is the *effective* band count (what actually ran
        # concurrently); the configured knob rides under its own key.
        assert c["workers"] == len(c["bands"])
        assert 1 <= c["workers"] <= 4
        assert c["workers_configured"] == 4
        spans = [tuple(b["vertices"]) for b in c["bands"]]
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert all(b["seconds"] >= 0.0 for b in c["bands"])
    assert sum(b["edges"] for b in chunks[0]["bands"]) == unit_graph.num_edges

    # meta is measurement, not accounting: a sequential run whose records
    # match is still an equal trace.
    ref_trace = WorkTrace(algorithm="unit", graph_name=unit_graph.name, num_partitions=16)
    ref = ReferenceEngine(unit_graph, eng.boundaries, ref_trace)
    state2 = {"x": np.ones(n)}
    ref.edgemap(Frontier.all_vertices(n), op, state2, direction="pull")
    ref.vertexmap(Frontier.all_vertices(n), lambda ids, st_: None, state2)
    assert not ref_trace.meta
    assert traces_equal(trace, ref_trace)


def test_vertexmap_filter_and_none(unit_graph):
    """The banded dense vertexmap keeps filter semantics: a mask filters,
    all-None passes the frontier through unchanged."""
    n = unit_graph.num_vertices
    eng, _ = _make_parallel(unit_graph, p=16, workers=4, min_work=0)
    state = {"x": np.arange(n, dtype=np.float64)}
    dense = Frontier.all_vertices(n)
    out = eng.vertexmap(dense, lambda ids, st_: st_["x"][ids] % 2 == 0, state)
    assert np.array_equal(out.ids, np.arange(0, n, 2))
    assert eng.vertexmap(dense, lambda ids, st_: None, state) is dense


def test_vertexmap_inconsistent_filter_rejected(unit_graph):
    """A vertex function returning a mask for one chunk and None for
    another is a contract violation, not a silent truncation."""
    n = unit_graph.num_vertices
    eng, _ = _make_parallel(unit_graph, p=16, workers=4, min_work=0)

    def fickle(ids, st_):
        return None if int(ids[0]) == 0 else np.ones(ids.size, dtype=bool)

    with pytest.raises(SimulationError, match="consistent across chunks"):
        eng.vertexmap(Frontier.all_vertices(n), fickle, {})


def test_sequential_fallbacks_take_inherited_path(unit_graph):
    """workers=1, tiny min_work thresholds and sparse frontiers must all
    take the vectorized path: no meta entries, identical results."""
    n = unit_graph.num_vertices

    def gather(srcs, dsts, st_):
        return st_["x"][srcs]

    def apply(touched, reduced, st_):
        st_["out"][touched] = reduced
        return np.ones(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)

    for kw in ({"workers": 1, "min_work": 0},
               {"workers": 4, "min_work": unit_graph.num_edges + 1}):
        eng, trace = _make_parallel(unit_graph, p=16, **kw)
        state = {"x": np.ones(n), "out": np.zeros(n)}
        eng.edgemap(Frontier.all_vertices(n), op, state, direction="pull")
        eng.vertexmap(Frontier.all_vertices(n), lambda ids, st_: None, state)
        assert "parallel_chunks" not in trace.meta

    # Sparse frontiers never fan out even with aggressive knobs.
    eng, trace = _make_parallel(unit_graph, p=16, workers=4, min_work=0)
    state = {"x": np.ones(n), "out": np.zeros(n)}
    eng.edgemap(Frontier.from_ids(np.array([0, 1]), n), op, state, direction="push")
    assert "parallel_chunks" not in trace.meta


def test_collapsed_band_plan_records_effective_workers():
    """Regression: a hub-heavy graph collapses the band plan below the
    configured worker count (np.unique folds ideal split points that land
    on the same partition boundary).  The meta channel must record the
    *effective* band count under "workers" — not the configured knob,
    which rides separately as "workers_configured"."""
    n = 200
    src = np.array(list(range(1, n)) + list(range(1, 41)))
    dst = np.array([0] * (n - 1) + list(range(2, 42)))
    graph = Graph.from_edges(src, dst, n, name="hub")
    boundaries = chunk_boundaries(graph.in_degrees(), 16)
    trace = WorkTrace(algorithm="unit", graph_name="hub", num_partitions=16)
    eng = ParallelEngine(graph, boundaries, trace, workers=8, min_work=0)
    assert eng._band_plan(8).size - 1 < 8, "graph no longer collapses the plan"

    def gather(srcs, dsts, st_):
        return st_["x"][srcs]

    def apply(touched, reduced, st_):
        return np.ones(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)
    eng.edgemap(Frontier.all_vertices(n), op, {"x": np.ones(n)}, direction="pull")

    (chunk,) = trace.meta["parallel_chunks"]
    assert chunk["workers"] == len(chunk["bands"])
    assert chunk["workers"] < 8
    assert chunk["workers_configured"] == 8


def test_shutdown_pools_is_recoverable(unit_graph):
    """Regression: module-level executors leaked past interpreter exit.
    ``shutdown_pools()`` must drain every pool, and the engine must
    lazily rebuild one on the next parallel step — shutdown is a flush,
    not a poison pill."""
    from repro.frameworks import parallel as par

    n = unit_graph.num_vertices

    def gather(srcs, dsts, st_):
        return st_["x"][srcs]

    def apply(touched, reduced, st_):
        st_["out"][touched] = reduced
        return np.ones(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)

    def run_once():
        eng, _ = _make_parallel(unit_graph, p=16, workers=4, min_work=0)
        state = {"x": np.ones(n), "out": np.zeros(n)}
        eng.edgemap(Frontier.all_vertices(n), op, state, direction="pull")
        return state_digest(state)

    before = run_once()
    assert par._POOLS, "parallel run should have populated the pool cache"
    par.shutdown_pools()
    assert not par._POOLS
    # A drained pool must not break later runs: the engine re-creates one
    # lazily, and the results stay byte-identical.
    assert run_once() == before
    assert par._POOLS
    par.shutdown_pools()


#: One parallel run populates the pool cache; the sweep then forks its
#: workers, whose every dense step fans out (``REPRO_PARALLEL_MIN_WORK=0``).
_FORKED_SWEEP = """
from repro.experiments import run
from repro.experiments.sweep import run_matrix
from repro.graph import datasets

run(datasets.load("twitter", scale=0.05), "PR", "ligra", backend="parallel")
results = run_matrix(
    ["twitter", "powerlaw"], ["PR", "BFS"], ["ligra"], ["original", "vebo"],
    params={"scale": 0.05}, backend="parallel", jobs=2,
)
print("cells", len(results))
"""


def test_forked_sweep_workers_start_without_pools(tmp_path):
    """Regression: forked sweep workers inherited the parent's pools but
    not their threads, so the first fanned-out step waited forever."""
    root = Path(__file__).resolve().parents[2]
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(root / "src"),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_PARALLEL_WORKERS="2",
        REPRO_PARALLEL_MIN_WORK="0",
    )
    # Own session, so a hang's forked workers die with the script.
    proc = subprocess.Popen(
        [sys.executable, "-c", _FORKED_SWEEP], env=env, cwd=tmp_path,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("forked sweep workers deadlocked on inherited pools")
    assert proc.returncode == 0, err
    assert "cells 8" in out
