"""Chunked edge-list ingestion: equivalence with the one-shot reader."""

import numpy as np
import pytest

from repro.errors import GraphFormatError, InvalidGraphError
from repro.graph import generators as gen
from repro.graph.csr import Graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.store.chunked import (
    build_graph_from_chunks,
    build_graph_from_shard_files,
    iter_edge_chunks,
    read_edge_list_chunked,
)


class TestChunkedEquivalence:
    @pytest.mark.parametrize("chunk_lines", [1, 7, 100, 1 << 19])
    def test_matches_one_shot_reader(self, tmp_path, chunk_lines):
        g = gen.zipf_powerlaw_graph(300, s=1.2, max_degree=30, seed=4, name="g")
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        chunked = read_edge_list_chunked(path, chunk_lines=chunk_lines)
        oneshot = read_edge_list(path)
        assert chunked.csr == oneshot.csr
        assert chunked.csc == oneshot.csc
        assert chunked.num_vertices == g.num_vertices

    def test_streaming_yields_multiple_chunks(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("".join(f"{i} {i + 1}\n" for i in range(10)))
        chunks = list(iter_edge_chunks(path, chunk_lines=3))
        assert len(chunks) == 4  # 3 + 3 + 3 + 1
        total = sum(src.size for src, _, _ in chunks)
        assert total == 10

    def test_nodes_hint_propagates(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("# Nodes: 50 Edges: 1\n0 1\n")
        g = read_edge_list_chunked(path)
        assert g.num_vertices == 50

    def test_hint_only_file(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("# Nodes: 7 Edges: 0\n")
        g = read_edge_list_chunked(path)
        assert g.num_vertices == 7
        assert g.num_edges == 0

    def test_explicit_num_vertices_wins(self, tmp_path):
        path = tmp_path / "n.txt"
        path.write_text("# Nodes: 50 Edges: 1\n0 1\n")
        g = read_edge_list_chunked(path, num_vertices=5)
        assert g.num_vertices == 5


def _random_chunks(n, m, seed, pieces):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    step = max(1, m // pieces)
    chunks = [
        (src[i : i + step], dst[i : i + step], None) for i in range(0, m, step)
    ]
    return src, dst, chunks


class TestStreamingBuilder:
    """Two-pass out-of-core construction is bit-identical to the eager path."""

    @pytest.mark.parametrize("pieces", [1, 3, 17])
    def test_bit_identical_to_from_edges(self, pieces):
        src, dst, chunks = _random_chunks(150, 2000, 9, pieces)
        streamed = build_graph_from_chunks(lambda: iter(chunks), num_vertices=150)
        eager = Graph.from_edges(src, dst, 150)
        assert np.array_equal(streamed.csr.offsets, eager.csr.offsets)
        assert np.array_equal(streamed.csr.adj, eager.csr.adj)
        assert np.array_equal(streamed.csc.offsets, eager.csc.offsets)
        assert np.array_equal(streamed.csc.adj, eager.csc.adj)

    def test_vertex_count_inferred_from_endpoints(self):
        src, dst, chunks = _random_chunks(80, 500, 2, 5)
        streamed = build_graph_from_chunks(lambda: iter(chunks))
        eager = Graph.from_edges(src, dst, None)
        assert streamed.num_vertices == eager.num_vertices
        assert np.array_equal(streamed.csr.adj, eager.csr.adj)

    def test_hint_respected_when_num_vertices_omitted(self):
        chunks = [(np.array([0, 1]), np.array([1, 0]), 9)]
        g = build_graph_from_chunks(lambda: iter(chunks))
        assert g.num_vertices == 9

    def test_empty_stream(self):
        g = build_graph_from_chunks(lambda: iter([]), num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0

    def test_negative_endpoint_rejected(self):
        chunks = [(np.array([0, -1]), np.array([1, 1]), None)]
        with pytest.raises(InvalidGraphError):
            build_graph_from_chunks(lambda: iter(chunks), num_vertices=3)

    def test_endpoint_beyond_num_vertices_rejected(self):
        chunks = [(np.array([0, 7]), np.array([1, 1]), None)]
        with pytest.raises(InvalidGraphError):
            build_graph_from_chunks(lambda: iter(chunks), num_vertices=3)

    def test_nondeterministic_stream_detected(self):
        calls = []

        def make_chunks():
            calls.append(1)
            m = 4 if len(calls) == 1 else 3
            yield np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64), None

        with pytest.raises(InvalidGraphError, match="not deterministic"):
            build_graph_from_chunks(make_chunks, num_vertices=2)

    @staticmethod
    def _second_pass_differs(src, dst):
        """A stream whose second pass yields ``(src, dst)`` instead of the
        first pass's edges (0, 1) and (1, 2)."""
        calls = []

        def make_chunks():
            calls.append(1)
            edges = ([0, 1], [1, 2]) if len(calls) == 1 else (src, dst)
            yield np.array(edges[0]), np.array(edges[1]), None

        return make_chunks

    def test_second_pass_edges_build_consistent_views(self):
        g = build_graph_from_chunks(self._second_pass_differs([2, 2], [0, 0]), num_vertices=3)
        eager = Graph.from_edges(np.array([2, 2]), np.array([0, 0]), 3)
        assert g.csr == eager.csr
        assert g.csc == eager.csc

    @pytest.mark.parametrize("src,dst", [
        ([0, 1], [1, 3]), ([0, 3], [1, 2]), ([0, 1], [-1, 2]), ([-1, 1], [1, 2]),
    ])
    def test_second_pass_out_of_range_rejected(self, src, dst):
        with pytest.raises(InvalidGraphError):
            build_graph_from_chunks(self._second_pass_differs(src, dst), num_vertices=3)

    def test_one_shard_build_matches_eager_reader(self, tmp_path):
        g = gen.zipf_powerlaw_graph(200, s=1.1, max_degree=25, seed=6, name="g")
        path = tmp_path / "g.txt"
        write_edge_list(g, path)
        eager = read_edge_list_chunked(path, chunk_lines=64)
        streamed = build_graph_from_shard_files([path], chunk_lines=64)
        assert eager.name == streamed.name
        assert eager.csr == streamed.csr
        assert eager.csc == streamed.csc

    def test_shard_files_match_concatenated_build(self, tmp_path):
        src, dst, _ = _random_chunks(60, 600, 13, 1)
        paths = []
        for s in range(4):
            p = tmp_path / f"shard{s}.txt"
            lo, hi = s * 150, (s + 1) * 150
            p.write_text(
                "".join(f"{a}\t{b}\n" for a, b in zip(src[lo:hi], dst[lo:hi]))
            )
            paths.append(p)
        g = build_graph_from_shard_files(paths, num_vertices=60, chunk_lines=37)
        eager = Graph.from_edges(src, dst, 60)
        assert np.array_equal(g.csr.offsets, eager.csr.offsets)
        assert np.array_equal(g.csr.adj, eager.csr.adj)
        assert np.array_equal(g.csc.adj, eager.csc.adj)

    def test_shard_files_require_at_least_one(self):
        with pytest.raises(GraphFormatError, match="no shard"):
            build_graph_from_shard_files([])

    def test_powerlaw_ooc_dataset_matches_itself_and_caches(self, tmp_path, monkeypatch):
        from repro import store
        from repro.graph.datasets import build_powerlaw_ooc

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        a = build_powerlaw_ooc(scale=0.02, shards=3)
        b = store.load_graph("powerlaw-ooc", scale=0.02, shards=3)  # cold build
        c = store.load_graph("powerlaw-ooc", scale=0.02, shards=3)  # cache hit
        assert np.array_equal(a.csr.adj, np.asarray(b.csr.adj))
        assert np.array_equal(a.csr.adj, np.asarray(c.csr.adj))
        # a different shard count is a different cache identity
        d = store.load_graph("powerlaw-ooc", scale=0.02, shards=5)
        assert d.num_vertices == a.num_vertices


class TestChunkedErrors:
    def test_malformed_line_reports_lineno_across_chunks(self, tmp_path):
        path = tmp_path / "bad.txt"
        lines = [f"{i} {i + 1}" for i in range(6)]
        lines.insert(4, "oops")  # becomes line 5
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFormatError, match=r"bad\.txt:5"):
            read_edge_list_chunked(path, chunk_lines=2)

    def test_lineno_correct_with_interleaved_comments(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("0 1\n1 2\n# comment\n\nbadline\n")
        with pytest.raises(GraphFormatError, match=r"mix\.txt:5"):
            read_edge_list_chunked(path)

    def test_lineno_correct_after_blank_lines(self, tmp_path):
        path = tmp_path / "blank.txt"
        path.write_text("0 1\n\n\n5\n")
        with pytest.raises(GraphFormatError, match=r"blank\.txt:4"):
            read_edge_list_chunked(path)

    def test_single_token_line(self, tmp_path):
        path = tmp_path / "st.txt"
        path.write_text("0 1\n42\n")
        with pytest.raises(GraphFormatError, match="expected 'src dst'"):
            read_edge_list_chunked(path)

    def test_non_integer_endpoint(self, tmp_path):
        path = tmp_path / "ni.txt"
        path.write_text("0 x\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            read_edge_list_chunked(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFormatError, match="cannot read"):
            list(iter_edge_chunks(tmp_path / "gone.txt"))

    def test_non_positive_chunk_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="positive"):
            list(iter_edge_chunks(path, chunk_lines=0))
