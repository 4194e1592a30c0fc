"""Correctness of the eight algorithms against independent references
(networkx / scipy / brute force)."""

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import coo_matrix

from repro.algorithms import (
    belief_propagation,
    bellman_ford,
    betweenness_centrality,
    bfs,
    connected_components,
    edge_weights,
    pagerank,
    pagerank_delta,
    spmv,
)
from repro.graph import generators as gen
from repro.graph.csr import Graph


def to_nx(graph: Graph) -> nx.DiGraph:
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    s, d = graph.edges()
    g.add_edges_from(zip(s.tolist(), d.tolist()))
    return g


@pytest.fixture
def test_graph():
    return gen.zipf_powerlaw_graph(
        150, s=1.1, max_degree=20, seed=21, source_skew=0.5, name="corr"
    )


class TestPageRank:
    def test_matches_power_iteration(self, test_graph):
        """Compare against a dense-matrix power iteration with identical
        dangling-vertex handling (dangling mass is dropped, as in Ligra)."""
        n = test_graph.num_vertices
        res = pagerank(test_graph, num_iterations=30, num_partitions=8)
        s, d = test_graph.edges()
        out_deg = np.maximum(test_graph.out_degrees(), 1).astype(float)
        A = coo_matrix(
            (1.0 / out_deg[s], (d, s)), shape=(n, n)
        ).tocsr()
        r = np.full(n, 1.0 / n)
        for _ in range(30):
            r = (1 - 0.85) / n + 0.85 * (A @ r)
        assert np.allclose(res.values["rank"], r, atol=1e-12)

    def test_ranks_positive_and_bounded(self, test_graph):
        res = pagerank(test_graph, num_iterations=10, num_partitions=4)
        ranks = res.values["rank"]
        assert np.all(ranks > 0)
        assert ranks.sum() <= 1.0 + 1e-9

    def test_hub_ranks_high(self):
        g = gen.star_graph(30, inward=True)
        res = pagerank(g, num_iterations=20, num_partitions=2)
        assert np.argmax(res.values["rank"]) == 0

    def test_invariant_under_reordering(self, test_graph):
        from repro.ordering import random_permutation, apply_ordering

        res1 = pagerank(test_graph, num_iterations=10, num_partitions=4)
        perm = random_permutation(test_graph, seed=3)
        g2 = apply_ordering(test_graph, perm)
        res2 = pagerank(g2, num_iterations=10, num_partitions=4)
        assert np.allclose(
            res1.values["rank"], res2.values["rank"][perm.perm], atol=1e-12
        )


class TestPageRankDelta:
    def test_converges_toward_pagerank(self, test_graph):
        exact = pagerank(test_graph, num_iterations=60, num_partitions=4)
        prd = pagerank_delta(
            test_graph, max_iterations=200, delta_threshold=1e-6,
            epsilon=1e-12, num_partitions=4,
        )
        # PRD approximates PR up to its tolerance
        diff = np.abs(prd.values["rank"] - exact.values["rank"]).max()
        assert diff < 1e-3

    def test_frontier_shrinks(self, test_graph):
        res = pagerank_delta(test_graph, max_iterations=50, num_partitions=4)
        sizes = [r.active_vertices for r in res.trace.records]
        assert sizes[0] >= sizes[-1]


class TestBFS:
    def test_matches_networkx(self, test_graph):
        src = int(np.argmax(test_graph.out_degrees()))
        res = bfs(test_graph, source=src, num_partitions=8)
        ref = nx.single_source_shortest_path_length(to_nx(test_graph), src)
        level = res.values["level"]
        for v in range(test_graph.num_vertices):
            if v in ref:
                assert level[v] == ref[v], f"vertex {v}"
            else:
                assert level[v] == -1

    @pytest.mark.parametrize("direction", ["push", "pull", "auto"])
    def test_directions_agree(self, test_graph, direction):
        src = int(np.argmax(test_graph.out_degrees()))
        auto = bfs(test_graph, source=src, num_partitions=4, direction="auto")
        other = bfs(test_graph, source=src, num_partitions=4, direction=direction)
        assert np.array_equal(auto.values["level"], other.values["level"])

    def test_parents_consistent(self, test_graph):
        src = int(np.argmax(test_graph.out_degrees()))
        res = bfs(test_graph, source=src, num_partitions=4)
        level, parent = res.values["level"], res.values["parent"]
        for v in range(test_graph.num_vertices):
            if level[v] > 0:
                assert level[parent[v]] == level[v] - 1

    def test_bad_source_rejected(self, test_graph):
        with pytest.raises(ValueError):
            bfs(test_graph, source=-1)


class TestCC:
    @pytest.mark.parametrize("mode", ["sync", "async"])
    def test_matches_networkx_weak_components(self, mode):
        g = gen.zipf_powerlaw_graph(120, s=1.0, max_degree=10, seed=5)
        res = connected_components(g, num_partitions=6, mode=mode)
        labels = res.values["label"]
        ref = list(nx.weakly_connected_components(to_nx(g)))
        for comp in ref:
            comp_labels = {int(labels[v]) for v in comp}
            assert len(comp_labels) == 1
            assert min(comp) == comp_labels.pop()

    def test_async_fewer_or_equal_iterations(self):
        g = gen.road_grid_graph(15, diagonal_fraction=0.0)
        sync = connected_components(g, num_partitions=8, mode="sync")
        async_ = connected_components(g, num_partitions=8, mode="async")
        assert np.array_equal(sync.values["label"], async_.values["label"])
        assert async_.iterations <= sync.iterations

    def test_bad_mode_rejected(self, test_graph):
        with pytest.raises(ValueError):
            connected_components(test_graph, mode="clairvoyant")


class TestBC:
    def test_matches_brandes_reference(self):
        g = gen.zipf_powerlaw_graph(80, s=1.0, max_degree=10, seed=7)
        src = int(np.argmax(g.out_degrees()))
        res = betweenness_centrality(g, source=src, num_partitions=4)
        # reference: single-source Brandes dependencies via networkx paths
        G = to_nx(g)
        # brute-force single-source dependency accumulation
        import collections

        dist = nx.single_source_shortest_path_length(G, src)
        sigma = collections.defaultdict(float)
        sigma[src] = 1.0
        order = sorted(dist, key=lambda v: dist[v])
        preds = collections.defaultdict(list)
        for v in order:
            for w in set(G.successors(v)):
                if dist.get(w, -1) == dist[v] + 1:
                    cnt = G.number_of_edges(v, w)
                    sigma[w] += sigma[v] * cnt
                    preds[w].append((v, cnt))
        delta = collections.defaultdict(float)
        for w in reversed(order):
            for v, cnt in preds[w]:
                delta[v] += cnt * sigma[v] / sigma[w] * (1 + delta[w])
        delta[src] = 0.0  # Brandes: the source's self-dependency is excluded
        bc = res.values["bc"]
        for v in range(g.num_vertices):
            assert bc[v] == pytest.approx(delta.get(v, 0.0), abs=1e-9), v

    def test_chain_bc(self):
        g = gen.chain_graph(5)
        res = betweenness_centrality(g, source=0, num_partitions=2)
        # On a path 0->1->2->3->4, interior vertices carry descending BC.
        assert np.allclose(res.values["bc"], [0, 3, 2, 1, 0])


class TestBF:
    def test_matches_networkx_dijkstra(self, test_graph):
        src = int(np.argmax(test_graph.out_degrees()))
        res = bellman_ford(test_graph, source=src, num_partitions=8)
        s, d = test_graph.edges()
        w = edge_weights(s, d)
        G = nx.DiGraph()
        G.add_nodes_from(range(test_graph.num_vertices))
        for si, di, wi in zip(s.tolist(), d.tolist(), w.tolist()):
            if G.has_edge(si, di):
                G[si][di]["weight"] = min(G[si][di]["weight"], wi)
            else:
                G.add_edge(si, di, weight=wi)
        ref = nx.single_source_dijkstra_path_length(G, src)
        dist = res.values["dist"]
        for v in range(test_graph.num_vertices):
            if v in ref:
                assert dist[v] == pytest.approx(ref[v]), v
            else:
                assert dist[v] == np.inf

    def test_weights_order_invariant(self, test_graph):
        from repro.ordering import random_permutation, apply_ordering

        src = int(np.argmax(test_graph.out_degrees()))
        base = bellman_ford(test_graph, source=src, num_partitions=4)
        perm = random_permutation(test_graph, seed=8)
        g2 = apply_ordering(test_graph, perm)
        res2 = bellman_ford(
            g2,
            source=int(perm.perm[src]),
            orig_ids=perm.inverse(),
            num_partitions=4,
        )
        assert np.allclose(base.values["dist"], res2.values["dist"][perm.perm])


class TestSPMV:
    def test_matches_scipy(self, test_graph):
        res = spmv(test_graph, num_partitions=4, seed=13)
        s, d = test_graph.edges()
        w = edge_weights(s, d)
        n = test_graph.num_vertices
        A = coo_matrix((w, (d, s)), shape=(n, n)).tocsr()
        assert np.allclose(res.values["y"], A @ res.values["x"])

    def test_explicit_vector(self, test_graph):
        x = np.ones(test_graph.num_vertices)
        res = spmv(test_graph, x=x, num_partitions=4)
        s, d = test_graph.edges()
        w = edge_weights(s, d)
        expected = np.bincount(d, weights=w, minlength=test_graph.num_vertices)
        assert np.allclose(res.values["y"], expected)

    def test_wrong_vector_length_rejected(self, test_graph):
        with pytest.raises(ValueError):
            spmv(test_graph, x=np.ones(3))


class TestBP:
    def test_beliefs_finite_and_converging(self, test_graph):
        res = belief_propagation(test_graph, num_iterations=10, num_partitions=4)
        assert np.all(np.isfinite(res.values["belief"]))
        assert np.all((res.values["marginal"] >= 0) & (res.values["marginal"] <= 1))

    def test_damping_fixed_point(self, test_graph):
        a = belief_propagation(test_graph, num_iterations=20, num_partitions=4)
        b = belief_propagation(test_graph, num_iterations=25, num_partitions=4)
        # successive sweeps change beliefs less and less
        assert np.abs(a.values["belief"] - b.values["belief"]).max() < 0.5

    def test_order_invariant(self, test_graph):
        from repro.ordering import random_permutation, apply_ordering

        base = belief_propagation(test_graph, num_iterations=5, num_partitions=4)
        perm = random_permutation(test_graph, seed=2)
        g2 = apply_ordering(test_graph, perm)
        res2 = belief_propagation(
            g2, num_iterations=5, orig_ids=perm.inverse(), num_partitions=4
        )
        assert np.allclose(
            base.values["belief"], res2.values["belief"][perm.perm], atol=1e-9
        )


class TestEdgeWeights:
    def test_deterministic_and_positive(self):
        s = np.array([0, 1, 2])
        d = np.array([1, 2, 0])
        w1 = edge_weights(s, d)
        w2 = edge_weights(s, d)
        assert np.array_equal(w1, w2)
        assert np.all(w1 >= 1)
        assert np.all(w1 <= 32)

    def test_orig_ids_translation(self):
        s = np.array([0, 1])
        d = np.array([1, 0])
        orig = np.array([5, 9])
        w = edge_weights(s, d, orig_ids=orig)
        direct = edge_weights(np.array([5, 9]), np.array([9, 5]))
        assert np.array_equal(w, direct)

    @pytest.mark.parametrize("high", [1_000, 2**31, 2**63 - 1])
    def test_bit_equal_to_the_masked_modulo_formula(self, high):
        """The weights equal ``((s*A + d*B) & 0x7FFFFFFF) % 32 + 1`` in
        wrapping int64, bit for bit, from random ids up to ``2**63 - 1``
        (where the products wrap), with and without ``orig_ids``."""
        rng = np.random.default_rng(high % 1_000_003)
        s = rng.integers(0, high, size=5_000, endpoint=True)
        d = rng.integers(0, high, size=5_000, endpoint=True)
        s[:2] = d[-2:] = [0, high]

        def formula(s, d):
            h = (s * np.int64(2654435761) + d * np.int64(40503)) & np.int64(0x7FFFFFFF)
            return (h % 32 + 1).astype(np.float64)

        want = formula(s, d)
        assert edge_weights(s, d).tobytes() == want.tobytes()
        a, b = rng.permutation(s.size), rng.permutation(s.size)
        relabelled = edge_weights(a, b, orig_ids=s)
        assert relabelled.tobytes() == formula(s[a], s[b]).tobytes()
