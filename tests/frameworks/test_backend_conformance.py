"""Differential conformance: the shipped backends ARE the oracle engine.

The ``vectorized`` and ``parallel`` backends are built for throughput;
their contract is bit-equality with the oracle engine
(:class:`oracles.ReferenceEngine`, registered as ``reference``) on
everything observable:

* final algorithm state (every value array, dtype included),
* the frontier sequence (mask and id list after every edgemap/vertexmap),
* trace accounting (every field of every :class:`IterationRecord`).

This suite pins the contract down four ways, for **every** shipped
backend (each test is parametrized over ``CONFORMANCE_BACKENDS``; the
``parallel`` backend additionally runs with several chunk workers and a
zero fan-out threshold, so its concurrent dense paths are genuinely
exercised on these small graphs — worker-count invariance itself is pinned
separately by ``test_parallel_determinism.py``):

1. **Lockstep engine stepping** — both engines execute the same edgemap
   sequence one step at a time, compared after *every* step, across
   sparse, medium and dense frontiers, push/pull/auto directions and the
   candidate-restricted pull used by BFS.
2. **Whole-algorithm differential runs** — all eight paper algorithms over
   {original, VEBO, Hilbert} vertex orderings (an id-preserving layout, an
   edge-balance-driven relabelling and a space-filling relabelling) on
   power-law and grid-ish graphs, plus the full 8-dataset registry matrix.
3. **Borrowed-buffer runs** — the same engines and algorithms over graphs
   whose ``offsets``/``adj`` are read-only ``np.memmap`` views (the buffer
   shape a warm ``REPRO_MMAP=1`` cache hit produces): any in-place write
   to a borrowed buffer raises immediately, any hidden copy diverges.
4. **Hypothesis property** — random graphs, random frontiers, random
   reductions with hostile float values (negative zeros, subnormals, huge
   magnitudes, longest-ulp sums), random candidate sets (sorted and
   unsorted), one edgemap on each backend, everything compared bitwise.

``add`` conformance is *exact* even for arbitrary floats because the
vectorized kernels (``np.bincount``, reference-order scatters) perform the
identical float64 additions in the identical order as ``np.add.at`` —
this is why the backend does not use ``np.add.reduceat``, whose pairwise
segment sums drift in the last ulp.  The parallel backend inherits the
same kernels per destination-owned chunk, which is why splitting a dense
step across workers cannot change a single bit either.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import ALGORITHMS
from repro.experiments.runner import prepare
from repro.frameworks.backends import BACKENDS, get_backend
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.frameworks.parallel import (
    MIN_WORK_ENV_VAR,
    WORKERS_ENV_VAR,
    ParallelEngine,
)
from repro.frameworks.trace import WorkTrace
from repro.frameworks.vectorized import VectorizedEngine
from repro.graph import generators as gen
from repro.graph.csr import CSRMatrix, Graph
from repro.partition.algorithm1 import chunk_boundaries

from oracles import ReferenceEngine

CONFORMANCE_ORDERINGS = ["original", "vebo", "hilbert"]
ALL_ALGOS = list(ALGORITHMS)

#: Every backend that must match the oracle engine bit for bit, with a
#: factory building an engine whose fast paths are actually exercised at
#: test scale (the parallel backend would otherwise fall back to its
#: sequential path on graphs this small / machines with one core).
ENGINE_FACTORIES = {
    "vectorized": VectorizedEngine,
    "parallel": lambda *a, **kw: ParallelEngine(*a, workers=4, min_work=0, **kw),
}
CONFORMANCE_BACKENDS = list(ENGINE_FACTORIES)


@pytest.fixture(params=CONFORMANCE_BACKENDS)
def backend(request, monkeypatch):
    """Backend name under test; for ``parallel``, the environment knobs
    force multi-worker fan-out so registry-constructed engines (the
    whole-algorithm runs) take the concurrent paths too."""
    if request.param == "parallel":
        monkeypatch.setenv(WORKERS_ENV_VAR, "4")
        monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
    return request.param

RECORD_FIELDS = ("kind", "direction", "density", "active_vertices",
                 "active_edges", "src_miss", "dst_miss")
RECORD_ARRAYS = ("part_edges", "part_dsts", "part_srcs", "part_vertices")


def assert_traces_identical(ref: WorkTrace, vec: WorkTrace) -> None:
    assert len(ref.records) == len(vec.records)
    for i, (r, v) in enumerate(zip(ref.records, vec.records)):
        for f in RECORD_FIELDS:
            assert getattr(r, f) == getattr(v, f), (i, f)
        for f in RECORD_ARRAYS:
            assert np.array_equal(getattr(r, f), getattr(v, f)), (i, f)
            assert getattr(r, f).dtype == getattr(v, f).dtype, (i, f)


def assert_frontiers_identical(ref: Frontier, vec: Frontier) -> None:
    assert np.array_equal(ref.mask, vec.mask)
    assert np.array_equal(ref.ids, vec.ids)
    assert ref.ids.dtype == vec.ids.dtype


def assert_states_identical(ref: dict, vec: dict) -> None:
    assert ref.keys() == vec.keys()
    for k in ref:
        a, b = ref[k], vec[k]
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b, equal_nan=True), k
            assert a.dtype == b.dtype, k
        else:
            assert a == b, k


def make_pair(graph: Graph, p: int, backend: str = "vectorized"):
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    engines = []
    for build in (ReferenceEngine, ENGINE_FACTORIES[backend]):
        trace = WorkTrace(algorithm="conf", graph_name=graph.name, num_partitions=p)
        engines.append(build(graph, boundaries, trace))
    return engines


# ----------------------------------------------------------------------
# registry sanity
# ----------------------------------------------------------------------

def test_backend_registry():
    assert BACKENDS["reference"] is ReferenceEngine
    assert BACKENDS["vectorized"] is VectorizedEngine
    assert BACKENDS["parallel"] is ParallelEngine
    assert get_backend("reference") is ReferenceEngine
    assert get_backend("vectorized") is VectorizedEngine
    assert get_backend("parallel") is ParallelEngine


# ----------------------------------------------------------------------
# 1. lockstep engine stepping
# ----------------------------------------------------------------------

def _add_op(values: np.ndarray) -> EdgeOp:
    def gather(srcs, dsts, st):
        return values[srcs]

    def apply(touched, reduced, st):
        st["acc"][touched] += reduced
        return reduced != 0.0

    return EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)


def _min_op() -> EdgeOp:
    def gather(srcs, dsts, st):
        return st["dist"][srcs] + 1.0

    def apply(touched, reduced, st):
        better = reduced < st["dist"][touched]
        st["dist"][touched[better]] = reduced[better]
        return better

    return EdgeOp(gather=gather, reduce="min", apply=apply, identity=np.inf)


@pytest.fixture(scope="module")
def lockstep_graph():
    return gen.zipf_powerlaw_graph(600, s=1.05, max_degree=80, seed=11, name="lock")


@pytest.mark.parametrize("direction", ["push", "pull", "auto"])
@pytest.mark.parametrize("seed_frontier", ["sparse", "medium", "dense"])
def test_lockstep_min_relaxation(lockstep_graph, backend, direction, seed_frontier):
    """BF-shaped min relaxation, compared after every step, from three
    starting densities."""
    g = lockstep_graph
    n = g.num_vertices
    rng = np.random.default_rng(5)
    frac = {"sparse": 0.005, "medium": 0.2, "dense": 1.0}[seed_frontier]
    seeds = np.flatnonzero(rng.random(n) < frac)
    if seeds.size == 0:
        seeds = np.array([0])
    ref, vec = make_pair(g, 24, backend=backend)
    st_ref = {"dist": np.where(np.isin(np.arange(n), seeds), 0.0, np.inf)}
    st_vec = {"dist": st_ref["dist"].copy()}
    f_ref = Frontier.from_ids(seeds, n)
    f_vec = Frontier.from_ids(seeds, n)
    op = _min_op()
    for _ in range(30):
        if f_ref.is_empty():
            break
        f_ref = ref.edgemap(f_ref, op, st_ref, direction=direction)
        f_vec = vec.edgemap(f_vec, op, st_vec, direction=direction)
        assert_frontiers_identical(f_ref, f_vec)
        assert_states_identical(st_ref, st_vec)
    assert_traces_identical(ref.trace, vec.trace)


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_lockstep_dense_add_iterations(lockstep_graph, backend, direction):
    """PR/BP-shaped repeated dense sweeps: the fast backends replay their
    cached dense record and must still match the reference on every
    iteration."""
    g = lockstep_graph
    n = g.num_vertices
    rng = np.random.default_rng(7)
    values = rng.random(n)
    ref, vec = make_pair(g, 24, backend=backend)
    st_ref = {"acc": np.zeros(n)}
    st_vec = {"acc": np.zeros(n)}
    op = _add_op(values)
    full = Frontier.all_vertices(n)
    for _ in range(4):
        out_ref = ref.edgemap(full, op, st_ref, direction=direction)
        out_vec = vec.edgemap(full, op, st_vec, direction=direction)
        assert_frontiers_identical(out_ref, out_vec)
        assert_states_identical(st_ref, st_vec)
    assert_traces_identical(ref.trace, vec.trace)


def test_lockstep_pull_with_candidates(lockstep_graph, backend):
    """BFS-shaped candidate-restricted pull."""
    g = lockstep_graph
    n = g.num_vertices
    ref, vec = make_pair(g, 24, backend=backend)
    src = int(np.argmax(g.out_degrees()))
    st_ref = {"dist": np.full(n, np.inf)}
    st_ref["dist"][src] = 0.0
    st_vec = {"dist": st_ref["dist"].copy()}
    f_ref = f_vec = Frontier.from_ids(np.array([src]), n)
    op = _min_op()
    for _ in range(20):
        if f_ref.is_empty():
            break
        cand_ref = np.flatnonzero(np.isinf(st_ref["dist"]))
        cand_vec = np.flatnonzero(np.isinf(st_vec["dist"]))
        assert np.array_equal(cand_ref, cand_vec)
        if cand_ref.size == 0:
            break
        f_ref = ref.edgemap(f_ref, op, st_ref, direction="pull", dst_candidates=cand_ref)
        f_vec = vec.edgemap(f_vec, op, st_vec, direction="pull", dst_candidates=cand_vec)
        assert_frontiers_identical(f_ref, f_vec)
        assert_states_identical(st_ref, st_vec)
    assert_traces_identical(ref.trace, vec.trace)


def test_lockstep_vertexmap(lockstep_graph, backend):
    g = lockstep_graph
    n = g.num_vertices
    ref, vec = make_pair(g, 24, backend=backend)
    st_ref = {"x": np.arange(n, dtype=np.float64)}
    st_vec = {"x": st_ref["x"].copy()}

    def fn(ids, st):
        st["x"][ids] *= 2.0
        return st["x"][ids] < 100.0

    for frontier in (
        Frontier.all_vertices(n),
        Frontier.from_ids(np.arange(0, n, 7), n),
        Frontier.all_vertices(n),  # dense again: replayed vertexmap record
    ):
        out_ref = ref.vertexmap(frontier, fn, st_ref)
        out_vec = vec.vertexmap(Frontier.from_mask(frontier.mask.copy()), fn, st_vec)
        assert_frontiers_identical(out_ref, out_vec)
        assert_states_identical(st_ref, st_vec)
    assert_traces_identical(ref.trace, vec.trace)


def test_nonstandard_identity_falls_back_bit_identical(lockstep_graph, backend):
    """An EdgeOp with a non-standard identity (here: min with a finite
    ceiling) must take the ``ufunc.at`` fallback kernel and still conform."""
    g = lockstep_graph
    n = g.num_vertices

    def gather(srcs, dsts, st):
        return st["v"][srcs]

    def apply(touched, reduced, st):
        st["out"][touched] = reduced
        return np.zeros(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="min", apply=apply, identity=5.0)
    rng = np.random.default_rng(3)
    ref, vec = make_pair(g, 24, backend=backend)
    st_ref = {"v": rng.random(n) * 10.0, "out": np.zeros(n)}
    st_vec = {"v": st_ref["v"].copy(), "out": np.zeros(n)}
    for f in (Frontier.all_vertices(n), Frontier.from_ids(np.arange(0, n, 5), n)):
        ref.edgemap(f, op, st_ref, direction="pull")
        vec.edgemap(f, op, st_vec, direction="pull")
        ref.edgemap(f, op, st_ref, direction="push")
        vec.edgemap(f, op, st_vec, direction="push")
    assert_states_identical(st_ref, st_vec)
    assert_traces_identical(ref.trace, vec.trace)


# ----------------------------------------------------------------------
# 2. whole-algorithm differential runs
# ----------------------------------------------------------------------

def run_algorithm(graph: Graph, algo: str, backend: str, p: int, source: int):
    kwargs: dict = {"num_partitions": p, "backend": backend}
    if algo in ("BFS", "BC", "BF"):
        kwargs["source"] = source
    if algo in ("PR", "BP"):
        kwargs["num_iterations"] = 3
    return ALGORITHMS[algo](graph, **kwargs)


def assert_results_identical(a, b):
    assert a.iterations == b.iterations
    assert a.values.keys() == b.values.keys()
    for k in a.values:
        assert np.array_equal(a.values[k], b.values[k], equal_nan=True), k
        assert a.values[k].dtype == b.values[k].dtype, k
    assert_traces_identical(a.trace, b.trace)


@pytest.fixture(scope="module")
def algo_graph():
    return gen.zipf_powerlaw_graph(500, s=1.1, max_degree=60, seed=9, name="conf-pl")


@pytest.mark.parametrize("ordering", CONFORMANCE_ORDERINGS)
@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_algorithms_conform_across_orderings(algo_graph, monkeypatch, algo, ordering):
    """All 8 algorithms x {original, VEBO, Hilbert} orderings: final
    state, frontier-driven iteration counts and trace accounting are
    bit-identical between the oracle and every shipped backend."""
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
    p = 16
    prep = prepare(algo_graph, ordering, num_partitions=p)
    g = prep.graph
    source = int(prep.perm[int(np.argmax(algo_graph.out_degrees()))])
    a = run_algorithm(g, algo, "reference", p, source)
    for name in CONFORMANCE_BACKENDS:
        b = run_algorithm(g, algo, name, p, source)
        assert_results_identical(a, b)


@pytest.mark.parametrize("algo", ["CC"])
def test_cc_async_conforms(algo_graph, monkeypatch, algo):
    """The asynchronous CC sweep records full-stream pull rounds; the
    fast backends replay them from their dense-record cache."""
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
    a = ALGORITHMS[algo](algo_graph, num_partitions=8, mode="async", backend="reference")
    for name in CONFORMANCE_BACKENDS:
        b = ALGORITHMS[algo](algo_graph, num_partitions=8, mode="async", backend=name)
        assert_results_identical(a, b)


def test_full_dataset_matrix_conforms(monkeypatch):
    """Acceptance sweep: every registered dataset x all 8 algorithms,
    original + VEBO + Hilbert layouts, the oracle vs every shipped
    backend, bit-identical end to end.

    Scaled-down builds keep this tractable; the layouts and frontier
    shapes are what matter, not the vertex counts.
    """
    from repro import store

    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
    p = 16
    for name in store.available_datasets():
        spec = store.get_dataset(name)
        params = {"scale": 0.05} if "scale" in spec.defaults else {}
        graph = store.load_graph(name, **params)
        for ordering in CONFORMANCE_ORDERINGS:
            prep = prepare(graph, ordering, num_partitions=p)
            g = prep.graph
            source = int(prep.perm[int(np.argmax(graph.out_degrees()))])
            for algo in ALL_ALGOS:
                a = run_algorithm(g, algo, "reference", p, source)
                for backend_name in CONFORMANCE_BACKENDS:
                    b = run_algorithm(g, algo, backend_name, p, source)
                    assert_results_identical(a, b)


# ----------------------------------------------------------------------
# 3. borrowed read-only / memory-mapped graph buffers
# ----------------------------------------------------------------------
#
# Under ``REPRO_MMAP=1`` a warm cache hit hands the engines graphs whose
# ``offsets``/``adj`` are read-only ``np.memmap`` views of the on-disk
# bundle.  An engine that mutated a borrowed buffer would raise
# ``ValueError: assignment destination is read-only`` the moment it
# tried; a silent copy would show up as a result divergence.  Both
# failure modes are pinned here for the shipped backends and the oracle.


def _mmap_graph(graph: Graph, root) -> Graph:
    """Round-trip a graph's four arrays through ``.npy`` files and rebuild
    it on read-only memory maps — the exact buffer shape a warm
    ``REPRO_MMAP=1`` cache hit produces."""
    mapped = {}
    for name, arr in (
        ("csr_offsets", graph.csr.offsets), ("csr_adj", graph.csr.adj),
        ("csc_offsets", graph.csc.offsets), ("csc_adj", graph.csc.adj),
    ):
        path = root / f"{name}.npy"
        np.save(path, np.asarray(arr))
        mapped[name] = np.load(path, mmap_mode="r")
    return Graph(
        csr=CSRMatrix(offsets=mapped["csr_offsets"], adj=mapped["csr_adj"]),
        csc=CSRMatrix(offsets=mapped["csc_offsets"], adj=mapped["csc_adj"]),
        name=graph.name,
    )


@pytest.fixture(scope="module")
def mmap_graph(algo_graph, tmp_path_factory):
    return _mmap_graph(algo_graph, tmp_path_factory.mktemp("mmap-conf"))


def test_graph_buffers_are_read_only_and_mapped(algo_graph, mmap_graph):
    """Eager and mmapped graphs alike hold ``writeable=False`` buffers;
    the mmapped one really borrows the on-disk pages (no hidden copy)."""
    for g in (algo_graph, mmap_graph):
        for arr in (g.csr.offsets, g.csr.adj, g.csc.offsets, g.csc.adj):
            assert not arr.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                arr[...] = 0
    # ``CSRMatrix`` may rewrap the memmap in a base-class view; either way
    # the underlying buffer must still be the memory map, not a copy.
    for arr in (mmap_graph.csr.adj, mmap_graph.csc.adj):
        assert isinstance(arr, np.memmap) or isinstance(arr.base, np.memmap)


def test_lockstep_min_relaxation_on_mmapped_graph(
    lockstep_graph, tmp_path, backend
):
    """The engine-level stepping contract holds when *both* engines borrow
    read-only mmapped buffers."""
    g = _mmap_graph(lockstep_graph, tmp_path)
    n = g.num_vertices
    ref, vec = make_pair(g, 24, backend=backend)
    src = int(np.argmax(np.diff(np.asarray(g.csr.offsets))))
    st_ref = {"dist": np.full(n, np.inf)}
    st_ref["dist"][src] = 0.0
    st_vec = {"dist": st_ref["dist"].copy()}
    f_ref = f_vec = Frontier.from_ids(np.array([src]), n)
    op = _min_op()
    for _ in range(30):
        if f_ref.is_empty():
            break
        f_ref = ref.edgemap(f_ref, op, st_ref, direction="auto")
        f_vec = vec.edgemap(f_vec, op, st_vec, direction="auto")
        assert_frontiers_identical(f_ref, f_vec)
        assert_states_identical(st_ref, st_vec)
    assert_traces_identical(ref.trace, vec.trace)


@pytest.mark.parametrize("algo", ALL_ALGOS)
def test_algorithms_identical_on_mmapped_graph(
    algo_graph, mmap_graph, monkeypatch, algo
):
    """All 8 algorithms on every backend over a read-only mmapped
    graph: bit-identical to the eager in-memory run, proving no backend
    writes to (or depends on writing to) borrowed buffers."""
    monkeypatch.setenv(WORKERS_ENV_VAR, "4")
    monkeypatch.setenv(MIN_WORK_ENV_VAR, "0")
    p = 16
    source = int(np.argmax(algo_graph.out_degrees()))
    for backend_name in ["reference", *CONFORMANCE_BACKENDS]:
        a = run_algorithm(algo_graph, algo, backend_name, p, source)
        b = run_algorithm(mmap_graph, algo, backend_name, p, source)
        assert_results_identical(a, b)


def test_prepare_layouts_identical_on_mmapped_graph(algo_graph, mmap_graph):
    """VEBO + Algorithm 1 layout preparation consumes the mmapped buffers
    directly (degree counting, counting sort, partitioning) and must land
    on the same layout, bit for bit."""
    eager = prepare(algo_graph, "vebo", num_partitions=16)
    mapped = prepare(mmap_graph, "vebo", num_partitions=16)
    assert np.array_equal(np.asarray(mapped.perm), np.asarray(eager.perm))
    assert np.array_equal(
        np.asarray(mapped.boundaries), np.asarray(eager.boundaries)
    )
    assert mapped.graph.csr == eager.graph.csr
    assert mapped.graph.csc == eager.graph.csc


# ----------------------------------------------------------------------
# 4. hypothesis property
# ----------------------------------------------------------------------

_HOSTILE = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 1e-308, -1e-308, 1e308, -1e308,
    0.1, 1.0 + 2**-52, 3.0, 1e16, -1e16, 7.5,
])


@st.composite
def conformance_case(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=150))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    graph = Graph.from_edges(
        rng.integers(0, n, size=m), rng.integers(0, n, size=m), n, name="hyp"
    )
    mask = rng.random(n) < draw(st.floats(min_value=0.0, max_value=1.0))
    # Bias toward the fully dense frontier so the template paths are hit.
    if draw(st.booleans()):
        mask[:] = True
    p = draw(st.integers(min_value=1, max_value=min(8, n)))
    reduce = draw(st.sampled_from(["add", "min", "or"]))
    identity = {"add": 0.0, "min": np.inf, "or": -np.inf}[reduce]
    if draw(st.booleans()):
        # Non-standard identity: exercises the fallback kernels.
        identity = draw(_HOSTILE)
    direction = draw(st.sampled_from(["push", "pull", "auto"]))
    candidates = None
    if direction == "pull" and draw(st.booleans()):
        cand = rng.integers(0, n, size=draw(st.integers(0, n)))
        if draw(st.booleans()):
            cand = np.unique(cand)  # sorted-unique: segment path
        candidates = cand  # possibly unsorted/duplicated: fallback path
    values = rng.choice(draw(st.lists(_HOSTILE, min_size=1, max_size=6)), size=n)
    return graph, mask, p, reduce, identity, direction, candidates, values


@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
@given(case=conformance_case())
@settings(max_examples=120, deadline=None)
# np.errstate is thread-local: the block below covers the orchestrating
# thread, but the parallel backend's chunk workers reduce hostile 1e308
# sums under the pool threads' default state, so the overflow-to-inf
# RuntimeWarning (expected — inf must round-trip bit-identically) leaks.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_single_edgemap_conforms(backend_name, case):
    graph, mask, p, reduce, identity, direction, candidates, values = case
    n = graph.num_vertices

    def gather(srcs, dsts, st_):
        return st_["vals"][srcs]

    def apply(touched, reduced, st_):
        st_["seen"][touched] = reduced
        return reduced != 0.0

    op = EdgeOp(gather=gather, reduce=reduce, apply=apply, identity=identity)
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    outs, states, traces = [], [], []
    for build in (ReferenceEngine, ENGINE_FACTORIES[backend_name]):
        trace = WorkTrace(algorithm="hyp", graph_name="hyp", num_partitions=p)
        eng = build(graph, boundaries, trace)
        st_ = {"vals": values.copy(), "seen": np.zeros(n)}
        with np.errstate(over="ignore"):  # hostile 1e308 sums overflow to inf
            out = eng.edgemap(
                Frontier.from_mask(mask.copy()), op, st_,
                direction=direction, dst_candidates=candidates,
            )
        outs.append(out)
        states.append(st_)
        traces.append(trace)
    assert_frontiers_identical(*outs)
    assert_states_identical(*states)
    assert_traces_identical(*traces)


@pytest.mark.parametrize("backend_name", CONFORMANCE_BACKENDS)
@given(case=conformance_case())
@settings(max_examples=60, deadline=None)
def test_float32_gather_upcasts_identically(backend_name, case):
    """A float32 gather must accumulate in float64 on every backend (the
    explicit cast in the reduction kernels): differential, plus a direct
    check that accumulation really happened at float64 precision."""
    graph, mask, p, reduce, _identity, direction, candidates, values = case
    identity = {"add": 0.0, "min": np.inf, "or": -np.inf}[reduce]
    n = graph.num_vertices

    def gather(srcs, dsts, st_):
        # Clip into float32 range first: the cast itself is exercised, the
        # overflow-to-inf warning is not the point of this test.
        return np.clip(st_["vals"][srcs], -1e30, 1e30).astype(np.float32)

    def apply(touched, reduced, st_):
        assert reduced.dtype == np.float64
        st_["seen"][touched] = reduced
        return np.zeros(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce=reduce, apply=apply, identity=identity)
    boundaries = chunk_boundaries(graph.in_degrees(), p)
    states = []
    for build in (ReferenceEngine, ENGINE_FACTORIES[backend_name]):
        trace = WorkTrace(algorithm="f32", graph_name="f32", num_partitions=p)
        eng = build(graph, boundaries, trace)
        st_ = {"vals": values.copy(), "seen": np.zeros(n)}
        eng.edgemap(
            Frontier.from_mask(mask.copy()), op, st_,
            direction=direction, dst_candidates=candidates,
        )
        states.append(st_)
    assert_states_identical(*states)
