"""Unit tests for the baseline orderings: RCM, Gorder, SlashBurn, LDG,
Fennel, degree-sort, random and the registry machinery."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import OrderingError
from repro.graph import generators as gen
from repro.ordering import (
    ORDERING_REGISTRY,
    apply_ordering,
    fennel_perm,
    get_ordering,
    gorder_perm,
    identity_order,
    ldg_perm,
    random_permutation,
    rcm_perm,
    slashburn_perm,
    sort_by_degree,
    validate_permutation,
)
from repro.ordering.streaming import assignment_to_order


def bandwidth(graph) -> int:
    """Max |src - dst| over all edges — what RCM minimizes."""
    s, d = graph.edges()
    return int(np.abs(s - d).max()) if s.size else 0


class TestRegistry:
    def test_all_builtins_registered(self):
        for name in ("original", "random", "degree-sort", "vebo", "rcm",
                     "gorder", "slashburn", "ldg", "fennel"):
            assert name in ORDERING_REGISTRY

    def test_get_unknown_raises(self):
        with pytest.raises(OrderingError):
            get_ordering("no-such-ordering")

    def test_every_ordering_returns_valid_permutation(self, small_social):
        for name, factory in ORDERING_REGISTRY.items():
            kwargs = {}
            if name in ("vebo", "ldg", "fennel"):
                kwargs["num_partitions"] = 4
            res = factory(small_social, **kwargs)
            assert sorted(res.perm.tolist()) == list(
                range(small_social.num_vertices)
            ), name


class TestValidatePermutation:
    def test_accepts_identity(self):
        validate_permutation(np.arange(5))

    def test_rejects_duplicates(self):
        with pytest.raises(OrderingError):
            validate_permutation(np.array([0, 0, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(OrderingError):
            validate_permutation(np.array([0, 5]))

    def test_rejects_2d(self):
        with pytest.raises(OrderingError):
            validate_permutation(np.zeros((2, 2), dtype=np.int64))


class TestOrderingResult:
    def test_inverse(self, small_powerlaw):
        res = random_permutation(small_powerlaw, seed=1)
        inv = res.inverse()
        assert np.array_equal(res.perm[inv], np.arange(res.num_vertices))

    def test_compose(self, small_powerlaw):
        a = random_permutation(small_powerlaw, seed=1)
        b = random_permutation(small_powerlaw, seed=2)
        ab = a.compose(b)
        v = 17
        assert ab.perm[v] == b.perm[a.perm[v]]

    def test_apply_wrong_size_rejected(self, small_powerlaw, small_grid):
        res = identity_order(small_grid)
        with pytest.raises(OrderingError):
            apply_ordering(small_powerlaw, res)


class TestSimpleOrders:
    def test_identity(self, small_grid):
        res = identity_order(small_grid)
        assert np.array_equal(res.perm, np.arange(small_grid.num_vertices))

    def test_degree_sort_descending(self, small_powerlaw):
        res = sort_by_degree(small_powerlaw)
        g2 = apply_ordering(small_powerlaw, res)
        degs = g2.in_degrees()
        assert np.all(np.diff(degs) <= 0)

    def test_random_deterministic_per_seed(self, small_powerlaw):
        a = random_permutation(small_powerlaw, seed=9)
        b = random_permutation(small_powerlaw, seed=9)
        c = random_permutation(small_powerlaw, seed=10)
        assert np.array_equal(a.perm, b.perm)
        assert not np.array_equal(a.perm, c.perm)


class TestRCM:
    def test_reduces_bandwidth_on_grid(self, small_grid):
        # Row-major grids already have bandwidth = side; shuffle first so
        # RCM has something to fix.
        rng = np.random.default_rng(0)
        shuffled = gen.permute_vertices(
            small_grid, rng.permutation(small_grid.num_vertices)
        )
        res_perm = rcm_perm(shuffled)
        from repro.ordering.base import OrderingResult

        fixed = apply_ordering(
            shuffled, OrderingResult(perm=res_perm, algorithm="rcm")
        )
        assert bandwidth(fixed) < bandwidth(shuffled) / 2

    def test_handles_disconnected(self):
        # two disjoint chains
        g = gen.chain_graph(6)
        s, d = g.edges()
        g2 = gen.permute_vertices(g, np.array([0, 1, 2, 3, 4, 5]))
        # build disconnection: chain 0-2 and 3-5 only
        src = np.array([0, 1, 3, 4])
        dst = np.array([1, 2, 4, 5])
        from repro.graph.csr import Graph

        disc = Graph.from_edges(src, dst, 6)
        perm = rcm_perm(disc)
        assert sorted(perm.tolist()) == list(range(6))

    def test_isolated_vertices(self):
        from repro.graph.csr import Graph

        g = Graph.from_edges([0], [1], num_vertices=5)
        perm = rcm_perm(g)
        assert sorted(perm.tolist()) == list(range(5))


class TestGorder:
    def test_permutation_valid(self, small_social):
        perm = gorder_perm(small_social, window=3)
        assert sorted(perm.tolist()) == list(range(small_social.num_vertices))

    def test_improves_sibling_proximity(self):
        """Vertices sharing an in-neighbour should end up closer together
        than under a random labelling."""
        g = gen.zipf_powerlaw_graph(
            300, s=1.2, max_degree=25, seed=2, source_skew=1.0
        )
        rng = np.random.default_rng(3)
        scrambled = gen.permute_vertices(g, rng.permutation(g.num_vertices))

        def sibling_spread(graph):
            spread = []
            for v in range(graph.num_vertices):
                out = graph.out_neighbors(v)
                if out.size >= 2:
                    spread.append(np.abs(np.diff(np.sort(out))).mean())
            return float(np.mean(spread))

        from repro.ordering.base import OrderingResult

        perm = gorder_perm(scrambled, window=5)
        ordered = apply_ordering(
            scrambled, OrderingResult(perm=perm, algorithm="gorder")
        )
        assert sibling_spread(ordered) < sibling_spread(scrambled)

    def test_empty_graph(self):
        from repro.graph.csr import Graph

        g = Graph.from_edges(np.empty(0, np.int64), np.empty(0, np.int64), 3)
        perm = gorder_perm(g)
        assert sorted(perm.tolist()) == [0, 1, 2]


class TestSlashBurn:
    def test_permutation_valid(self, small_social):
        perm = slashburn_perm(small_social)
        assert sorted(perm.tolist()) == list(range(small_social.num_vertices))

    def test_hubs_get_low_ids(self):
        g = gen.zipf_powerlaw_graph(500, s=1.3, max_degree=80, seed=4)
        perm = slashburn_perm(g, k_fraction=0.02)
        hub = int(np.argmax(g.in_degrees() + g.out_degrees()))
        assert perm[hub] < 30

    def test_grid_terminates(self, small_grid):
        perm = slashburn_perm(small_grid, max_rounds=8)
        assert sorted(perm.tolist()) == list(range(small_grid.num_vertices))

    def test_package_imports_without_scipy(self):
        """Only SlashBurn's component search needs scipy, so importing
        the store, the sweep and the CLI (what every process imports)
        loads none of it."""
        src = Path(__file__).resolve().parents[2] / "src"
        code = ("import sys, repro.store, repro.experiments, repro.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestStreaming:
    def test_assignment_to_order_contiguous(self):
        assign = np.array([1, 0, 1, 0, 2])
        perm = assignment_to_order(assign, 3)
        # partition 0's vertices (1, 3) occupy ids 0..1 in arrival order
        assert perm[1] == 0 and perm[3] == 1
        assert perm[0] == 2 and perm[2] == 3
        assert perm[4] == 4

    def test_assignment_rejects_out_of_range(self):
        with pytest.raises(OrderingError):
            assignment_to_order(np.array([0, 7]), 3)

    def test_assignment_round_trip_reconstructs_partitions(self):
        """old-id -> new-seq permutation round trip: inverting the layout
        recovers the original assignment as contiguous, arrival-ordered
        blocks (the LDG/Fennel validity contract)."""
        rng = np.random.default_rng(3)
        assign = rng.integers(0, 5, size=200)
        perm = assignment_to_order(assign, 5)
        assert sorted(perm.tolist()) == list(range(200))
        inv = np.empty(200, dtype=np.int64)
        inv[perm] = np.arange(200)
        layout_parts = assign[inv]
        assert np.all(np.diff(layout_parts) >= 0)  # contiguous blocks
        for j in range(5):
            members = inv[layout_parts == j]
            assert np.all(np.diff(members) > 0)  # arrival order kept
            assert np.array_equal(np.sort(members), np.flatnonzero(assign == j))

    def test_empty_assignment(self):
        assert assignment_to_order(np.array([], dtype=np.int64), 4).size == 0

    def test_ldg_balanced(self, small_social):
        perm = ldg_perm(small_social, num_partitions=4)
        assert sorted(perm.tolist()) == list(range(small_social.num_vertices))

    def test_fennel_balanced(self, small_social):
        perm = fennel_perm(small_social, num_partitions=4)
        assert sorted(perm.tolist()) == list(range(small_social.num_vertices))

    def test_ldg_respects_capacity(self):
        g = gen.zipf_powerlaw_graph(100, s=1.0, max_degree=10, seed=1)
        from repro.ordering.streaming import _stream_assign

        def score(nc, sizes):
            return nc
        assign = _stream_assign(g, 4, score, capacity_slack=1.1)
        counts = np.bincount(assign, minlength=4)
        assert counts.max() <= int(1.1 * 100 / 4) + 1
