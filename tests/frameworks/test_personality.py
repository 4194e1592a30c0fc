"""Unit tests for the framework personalities (pricing layer)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.algorithms import ALGORITHMS, pagerank, bfs
from repro.experiments.runner import _measure_locality, execute, prepare
from repro.frameworks.frontier import DensityClass
from repro.frameworks.trace import IterationRecord, WorkTrace
from repro.frameworks.personality import (
    ACCOUNTING_CHUNKS,
    FRAMEWORKS,
    FrameworkModel,
    GRAPHGRIND,
    LIGRA,
    POLYMER,
)
from repro.graph import generators as gen
from repro.machine.models import get_machine

from oracles import price_per_record


@pytest.fixture(scope="module")
def social():
    return gen.zipf_powerlaw_graph(
        1500, s=1.2, max_degree=60, zero_in_fraction=0.1,
        degree_locality=0.5, neighbor_locality=0.4, source_skew=0.9,
        seed=17, name="pricing",
    )


@pytest.fixture(scope="module")
def locality(social):
    """The (src, dst) miss pair the runner measures for a CSC traversal."""
    return _measure_locality(social, "csc")


@pytest.fixture(scope="module")
def pr_trace(social):
    return pagerank(social, num_iterations=3, num_partitions=48).trace


class TestPersonalityConfig:
    def test_registry(self):
        assert set(FRAMEWORKS) == {"ligra", "polymer", "graphgrind"}

    def test_paper_configuration(self):
        assert LIGRA.scheduler == "cilk" and not LIGRA.numa_aware
        assert POLYMER.scheduler == "static-hier"
        assert GRAPHGRIND.scheduler == "numa-hier"
        assert GRAPHGRIND.default_partitions == ACCOUNTING_CHUNKS == 384

    def test_invalid_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            FrameworkModel(
                name="x", scheduler="quantum", default_partitions=4,
                numa_aware=False, locality_optimized=False,
            )


class TestPricing:
    def test_price_positive_and_decomposed(self, pr_trace, locality):
        est = GRAPHGRIND.price(pr_trace, locality=locality)
        assert est.seconds > 0
        assert est.per_iteration.shape == (len(pr_trace.records),)
        assert est.seconds == pytest.approx(est.per_iteration.sum())

    def test_pricing_deterministic(self, pr_trace, locality):
        a = GRAPHGRIND.price(pr_trace, locality=locality)
        b = GRAPHGRIND.price(pr_trace, locality=locality)
        assert a.seconds == b.seconds

    def test_explicit_locality_used(self, pr_trace):
        cheap = GRAPHGRIND.price(pr_trace, locality=(0.0, 0.0))
        costly = GRAPHGRIND.price(pr_trace, locality=(1.0, 1.0))
        assert costly.seconds > cheap.seconds

    def test_non_numa_system_pays_remote(self, pr_trace):
        # identical trace priced with and without NUMA awareness
        aware = FrameworkModel(
            name="a", scheduler="cilk", default_partitions=48,
            numa_aware=True, locality_optimized=True,
        )
        unaware = FrameworkModel(
            name="u", scheduler="cilk", default_partitions=48,
            numa_aware=False, locality_optimized=True,
        )
        assert (
            unaware.price(pr_trace, locality=(0.3, 0.1)).seconds
            > aware.price(pr_trace, locality=(0.3, 0.1)).seconds
        )

    def test_static_more_sensitive_than_dynamic(self, social):
        """The paper's systems story: the same imbalanced trace costs a
        statically scheduled system more than a dynamically scheduled one."""
        trace = pagerank(social, num_iterations=2, num_partitions=384).trace
        static = FrameworkModel(
            name="s", scheduler="static-hier", default_partitions=384,
            numa_aware=True, locality_optimized=True,
        )
        dynamic = FrameworkModel(
            name="d", scheduler="numa-hier", default_partitions=384,
            numa_aware=True, locality_optimized=True,
        )
        loc = (0.2, 0.05)
        assert (
            static.price(trace, locality=loc).seconds
            >= dynamic.price(trace, locality=loc).seconds
        )

    @pytest.mark.parametrize("edge_order", ["csc", "csr", "hilbert"])
    def test_measure_locality_bounds(self, social, edge_order):
        src_miss, dst_miss = _measure_locality(social, edge_order)
        assert 0.0 <= src_miss <= 1.0
        assert 0.0 <= dst_miss <= 1.0

    def test_vertexmap_records_priced(self, social, locality):
        trace = pagerank(social, num_iterations=1, num_partitions=48).trace
        kinds = [r.kind for r in trace.records]
        assert "vertexmap" in kinds
        est = POLYMER.price(trace, locality=locality)
        vm_idx = kinds.index("vertexmap")
        assert est.per_iteration[vm_idx] > 0

    def test_sparse_algorithm_priced(self, social, locality):
        trace = bfs(social, source=0, num_partitions=48).trace
        est = LIGRA.price(trace, locality=locality)
        assert est.seconds > 0


@pytest.fixture(scope="module")
def matrix_traces(social):
    """Every algorithm's trace under both engines (the vectorized engine
    shares one record object across repeated steps, the reference does
    not), plus a hand-made trace with a zero-vertex vertexmap step."""
    prepared = prepare(social, "vebo", num_partitions=ACCOUNTING_CHUNKS)
    traces = {
        (backend, name): execute(social, name, prepared=prepared, backend=backend).trace
        for backend in ("reference", "vectorized")
        for name in ALGORITHMS
    }
    p = ACCOUNTING_CHUNKS
    zeros = np.zeros(p, dtype=np.int64)
    ramp = np.arange(p, dtype=np.int64)

    def record(kind, vertices, density=DensityClass.SPARSE, miss=-1.0):
        return IterationRecord(
            kind=kind, direction="-" if kind == "vertexmap" else "push",
            density=density, active_vertices=int(vertices.sum()),
            active_edges=int(ramp.sum()) if kind == "edgemap" else 0,
            part_edges=ramp if kind == "edgemap" else zeros,
            part_dsts=ramp // 2 if kind == "edgemap" else zeros,
            part_srcs=ramp // 3 if kind == "edgemap" else zeros,
            part_vertices=vertices, src_miss=miss, dst_miss=miss / 2,
        )

    empty_vm = record("vertexmap", zeros)
    steps = [record("edgemap", zeros, miss=0.4), empty_vm, record("vertexmap", ramp),
             record("edgemap", zeros, DensityClass.DENSE), empty_vm]
    traces[("hand", "zero-vertex")] = WorkTrace("hand", "pricing", p, steps)
    return traces


#: The flat schedulers no built-in personality uses.
FLAT = {
    name: FrameworkModel(name=name, scheduler=name, default_partitions=384,
                         numa_aware=aware, locality_optimized=aware)
    for name, aware in (("static", True), ("dynamic", False))
}


@pytest.mark.parametrize("machine", ["paper-xeon", "big-numa", "laptop"])
@pytest.mark.parametrize("framework", ["ligra", "polymer", "graphgrind", "static", "dynamic"])
def test_price_equals_per_record_oracle(matrix_traces, locality, framework, machine):
    """One cost matrix and one scheduler call per trace price every step
    exactly as one PartitionWork and one heap schedule per record did."""
    model = {**FRAMEWORKS, **FLAT}[framework].on_machine(get_machine(machine))
    for label, trace in matrix_traces.items():
        est = model.price(trace, locality=locality)
        want = price_per_record(model, trace, locality)
        assert np.array_equal(est.per_iteration, want), label
        assert est.seconds == float(want.sum()), label


def test_zero_vertex_vertexmap_prices_zero_when_numa_aware(matrix_traces, locality):
    trace = matrix_traces[("hand", "zero-vertex")]
    for model in (POLYMER, GRAPHGRIND, FrameworkModel(
            name="numa-cilk", scheduler="cilk", default_partitions=384,
            numa_aware=True, locality_optimized=True)):
        per_iter = model.price(trace, locality=locality).per_iteration
        assert per_iter[1] == per_iter[4] == 0.0
        assert per_iter[0] > 0 and per_iter[2] > 0
    # Interleaved arrays still schedule the empty sweep: Cilk charges
    # its steal overhead per leaf.
    assert LIGRA.price(trace, locality=locality).per_iteration[1] > 0
