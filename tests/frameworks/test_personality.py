"""Unit tests for the framework personalities (pricing layer)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.algorithms import pagerank, bfs
from repro.experiments.runner import _measure_locality
from repro.frameworks.personality import (
    ACCOUNTING_CHUNKS,
    FRAMEWORKS,
    FrameworkModel,
    GRAPHGRIND,
    LIGRA,
    POLYMER,
)
from repro.graph import generators as gen


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
        assert POLYMER.scheduler == "static-hier" and POLYMER.numa_partitions == 4
        assert GRAPHGRIND.scheduler == "numa-hier"
        assert GRAPHGRIND.numa_partitions == ACCOUNTING_CHUNKS == 384

    def test_invalid_scheduler_rejected(self):
        with pytest.raises(SimulationError):
            FrameworkModel(
                name="x", scheduler="quantum", default_partitions=4,
                numa_partitions=1, numa_aware=False, locality_optimized=False,
            )


class TestPricing:
    def test_price_positive_and_decomposed(self, social, pr_trace, locality):
        est = GRAPHGRIND.price(pr_trace, social, locality=locality)
        assert est.seconds > 0
        assert est.per_iteration.shape == (len(pr_trace.records),)
        assert est.seconds == pytest.approx(est.per_iteration.sum())

    def test_pricing_deterministic(self, social, pr_trace, locality):
        a = GRAPHGRIND.price(pr_trace, social, locality=locality)
        b = GRAPHGRIND.price(pr_trace, social, locality=locality)
        assert a.seconds == b.seconds

    def test_explicit_locality_used(self, social, pr_trace):
        cheap = GRAPHGRIND.price(pr_trace, social, locality=(0.0, 0.0))
        costly = GRAPHGRIND.price(pr_trace, social, locality=(1.0, 1.0))
        assert costly.seconds > cheap.seconds

    def test_non_numa_system_pays_remote(self, social, pr_trace):
        # identical trace priced with and without NUMA awareness
        aware = FrameworkModel(
            name="a", scheduler="cilk", default_partitions=48, numa_partitions=1,
            numa_aware=True, locality_optimized=True,
        )
        unaware = FrameworkModel(
            name="u", scheduler="cilk", default_partitions=48, numa_partitions=1,
            numa_aware=False, locality_optimized=True,
        )
        assert (
            unaware.price(pr_trace, social, locality=(0.3, 0.1)).seconds
            > aware.price(pr_trace, social, locality=(0.3, 0.1)).seconds
        )

    def test_static_more_sensitive_than_dynamic(self, social):
        """The paper's systems story: the same imbalanced trace costs a
        statically scheduled system more than a dynamically scheduled one."""
        trace = pagerank(social, num_iterations=2, num_partitions=384).trace
        static = FrameworkModel(
            name="s", scheduler="static-hier", default_partitions=384,
            numa_partitions=4, numa_aware=True, locality_optimized=True,
        )
        dynamic = FrameworkModel(
            name="d", scheduler="numa-hier", default_partitions=384,
            numa_partitions=4, numa_aware=True, locality_optimized=True,
        )
        loc = (0.2, 0.05)
        assert (
            static.price(trace, social, locality=loc).seconds
            >= dynamic.price(trace, social, locality=loc).seconds
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
        est = POLYMER.price(trace, social, locality=locality)
        vm_idx = kinds.index("vertexmap")
        assert est.per_iteration[vm_idx] > 0

    def test_sparse_algorithm_priced(self, social, locality):
        trace = bfs(social, source=0, num_partitions=48).trace
        est = LIGRA.price(trace, social, locality=locality)
        assert est.seconds > 0
