"""The one (group, member) pair order behind every CSR/CSC build.

``CSRMatrix.from_pairs``, the out-of-core builder and ``compute_stats``
all sort :func:`~repro.graph.csr.pair_keys`; each must equal the
``lexsort`` oracle in ``tests/oracles.py`` bit for bit, and the range
rule must refuse a vertex count whose keys would overflow int64 before
allocating anything of that size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InvalidGraphError
from repro.graph.csr import MAX_VERTICES, CSRMatrix, Graph, pair_keys
from repro.partition.stats import compute_stats
from repro.store.chunked import build_graph_from_chunks, build_graph_from_shard_files

from oracles import compute_stats_reference, from_pairs_reference, graph_from_edges_reference


@st.composite
def pair_sets(draw):
    """Random pairs with duplicates and self-loops; endpoints stay below
    ``hi <= n``, so ``n - hi`` trailing vertices are isolated."""
    n = draw(st.integers(min_value=1, max_value=40))
    hi = draw(st.integers(min_value=1, max_value=n))
    m = draw(st.integers(min_value=0, max_value=120))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31 - 1)))
    src = rng.integers(0, hi, size=m)
    dst = rng.integers(0, hi, size=m)
    loops = rng.random(m) < 0.2
    dst[loops] = src[loops]
    return src, dst, n


def _assert_same_view(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.offsets.dtype == want.offsets.dtype == np.int64
    assert got.adj.dtype == want.adj.dtype == np.int64
    assert np.array_equal(got.offsets, want.offsets)
    assert np.array_equal(got.adj, want.adj)


def _assert_same_graph(got: Graph, want: Graph) -> None:
    _assert_same_view(got.csr, want.csr)
    _assert_same_view(got.csc, want.csc)


@given(pair_sets())
@settings(max_examples=120, deadline=None)
def test_from_pairs_equals_lexsort_oracle(pairs):
    src, dst, n = pairs
    _assert_same_view(CSRMatrix.from_pairs(src, dst, n), from_pairs_reference(src, dst, n))
    _assert_same_graph(Graph.from_edges(src, dst, n), graph_from_edges_reference(src, dst, n))


@given(pair_sets(), st.data())
@settings(max_examples=120, deadline=None)
def test_streaming_build_equals_lexsort_oracle(pairs, data):
    src, dst, n = pairs
    cuts = sorted(data.draw(st.lists(st.integers(0, src.size), max_size=8)))
    bounds = [0, *cuts, src.size]
    # Repeated cuts make empty chunks, as does the trailing one.
    chunks = [(src[a:b], dst[a:b], None) for a, b in zip(bounds, bounds[1:])]
    chunks.append((src[:0], dst[:0], None))
    streamed = build_graph_from_chunks(lambda: iter(chunks), num_vertices=n)
    _assert_same_graph(streamed, graph_from_edges_reference(src, dst, n))


@given(pair_sets(), st.data())
@settings(max_examples=120, deadline=None)
def test_compute_stats_equals_lexsort_oracle(pairs, data):
    src, dst, n = pairs
    g = Graph.from_edges(src, dst, n)
    # More partitions than vertices is allowed and leaves some empty.
    p = data.draw(st.integers(min_value=1, max_value=2 * n + 2))
    inner = sorted(data.draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    boundaries = np.array([0, *inner, n], dtype=np.int64)
    got = compute_stats(g, boundaries)
    want = compute_stats_reference(g, boundaries)
    for name in ("edges", "vertices", "unique_destinations", "unique_sources"):
        assert getattr(got, name).dtype == getattr(want, name).dtype == np.int64
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=MAX_VERTICES - 1),
            st.integers(min_value=0, max_value=MAX_VERTICES - 1),
        ),
        max_size=60,
    ),
    st.sampled_from([MAX_VERTICES, 2**31, 1000]),
)
@settings(max_examples=150, deadline=None)
def test_pair_keys_sort_like_lexsort_up_to_the_range_limit(pairs, base):
    group = np.array([g % base for g, _ in pairs], dtype=np.int64)
    member = np.array([m % base for _, m in pairs], dtype=np.int64)
    keys = pair_keys(group, member, base)
    assert keys.dtype == np.int64 and (keys >= 0).all()
    assert np.array_equal(keys // base, group)
    assert np.array_equal(keys % base, member)
    order = np.lexsort((member, group))
    keys.sort()
    assert np.array_equal(keys // base, group[order])
    assert np.array_equal(keys % base, member[order])


def _huge_nodes_header(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"# Nodes: {2**32} Edges: 1\n0 1\n")
    return build_graph_from_shard_files([path])


class TestRangeRule:
    """Keys ``group * n + member`` must stay below 2**63."""

    def test_limit_is_exact(self):
        assert MAX_VERTICES**2 <= 2**63 < (MAX_VERTICES + 1) ** 2
        none = np.empty(0, dtype=np.int64)
        pair_keys(none, none, MAX_VERTICES)
        with pytest.raises(InvalidGraphError, match="exceed"):
            pair_keys(none, none, MAX_VERTICES + 1)

    @pytest.mark.parametrize("build", [
        lambda _: Graph.from_edges(np.array([0, 1]), np.array([1, 0]), num_vertices=2**32),
        lambda _: Graph.from_edges(np.array([0]), np.array([2**32])),
        lambda _: build_graph_from_chunks(
            lambda: iter([(np.array([0, 1]), np.array([1, 0]), None)]), num_vertices=2**32
        ),
        lambda _: build_graph_from_chunks(lambda: iter([]), num_vertices=2**32),
        lambda _: build_graph_from_chunks(lambda: iter([(np.array([0]), np.array([2**32]), None)])),
        _huge_nodes_header,
    ], ids=["from_edges", "from_edges-inferred", "streaming", "streaming-edgeless",
            "streaming-inferred", "shard-header"])
    def test_refused_before_allocating(self, build, tmp_path):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidGraphError, match="exceed"):
                build(tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # one int64 per vertex would be 32 GiB
