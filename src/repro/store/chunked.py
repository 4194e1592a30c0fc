"""Chunked / streaming edge-list ingestion.

The SNAP downloads the paper evaluates on (Orkut, LiveJournal, Friendster)
are multi-gigabyte text files; slurping them with ``read_text().splitlines()``
holds the whole file *and* a Python list of tuples in memory at once —
several times the size of the final int64 arrays.  This module parses the
file in bounded batches instead: each chunk of lines becomes a pair of
int64 arrays immediately (via ``np.loadtxt`` on the batch), so peak memory
is ``O(chunk)`` plus the growing compact arrays.

:func:`iter_edge_chunks` is the streaming primitive;
:func:`read_edge_list_chunked` accumulates the chunks into a
:class:`~repro.graph.csr.Graph` and is what :func:`repro.graph.io.read_edge_list`
delegates to.  All failure modes raise the project's typed
:class:`~repro.errors.GraphFormatError` — including unreadable files and
non-ASCII bytes, which the stdlib would surface as bare ``OSError`` /
``UnicodeDecodeError``.

Out-of-core construction
------------------------
:func:`build_graph_from_chunks` is the scale tier on top of the chunk
primitive: a **two-pass** CSR+CSC builder that never materializes the full
``(src, dst)`` edge list.  Pass 1 streams the chunks once to count and
check the edges (O(1) state); pass 2 streams them again and writes each
edge's CSR and CSC :func:`~repro.graph.csr.pair_keys` straight into the
two output arrays, which :meth:`~repro.graph.csr.CSRMatrix.from_keys`
then sorts and reduces to the adjacency in place.
The output is bit-identical to ``Graph.from_edges`` over the
concatenated chunks — the same one pair order — which is what lets the
sharded dataset specs
(:func:`repro.store.registry.register_sharded_dataset` and the synthetic
``powerlaw-ooc`` spec) build graphs whose edge lists never fit in memory
at once.  :func:`build_graph_from_shard_files` chains the chunk reader
over many shard files into one such build.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import obs
from repro.errors import GraphFormatError, InvalidGraphError
from repro.graph.csr import CSRMatrix, INDEX_DTYPE, Graph, pair_keys

__all__ = [
    "iter_edge_chunks",
    "read_edge_list_chunked",
    "build_graph_from_chunks",
    "build_graph_from_shard_files",
    "DEFAULT_CHUNK_LINES",
]

#: Lines parsed per batch; ~16 MB of text per chunk at typical line widths.
DEFAULT_CHUNK_LINES = 1 << 19


def _parse_batch(batch: list[tuple[int, str]], path) -> np.ndarray:
    """Convert a batch of ``(lineno, line)`` pairs into ``int64[k, 2]``.

    Line numbers ride along with each entry because comment and blank
    lines are skipped during batching — an offset into the batch says
    nothing about the position in the file.
    """
    try:
        arr = np.array([line.split()[:2] for _, line in batch], dtype=INDEX_DTYPE)
    except (ValueError, OverflowError):
        # Fall back to a line-by-line scan only to locate the culprit.
        for lineno, line in batch:
            parts = line.split()
            if len(parts) < 2:
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst'"
                ) from None
            try:
                int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer endpoint"
                ) from None
        raise GraphFormatError(f"{path}: malformed edge list") from None
    if arr.ndim != 2 or arr.shape[1] != 2:
        # np.array silently builds a ragged object—or 1-D—array when some
        # line has a single token; locate it precisely.
        for lineno, line in batch:
            if len(line.split()) < 2:
                raise GraphFormatError(f"{path}:{lineno}: expected 'src dst'")
        raise GraphFormatError(f"{path}: malformed edge list")
    return arr


def iter_edge_chunks(
    path: str | os.PathLike,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> Iterator[tuple[np.ndarray, np.ndarray, int | None]]:
    """Stream a SNAP-style edge list as ``(src, dst, nodes_hint)`` chunks.

    ``nodes_hint`` is the value of a ``# Nodes: <n>`` comment once seen,
    else ``None``.  Comment and blank lines are skipped; malformed lines
    raise :class:`GraphFormatError` with a ``path:line`` prefix.
    """
    if chunk_lines <= 0:
        raise GraphFormatError("chunk_lines must be positive")
    path = Path(path)
    n_hint: int | None = None
    batch: list[tuple[int, str]] = []
    try:
        with open(path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.strip()
                if not stripped:
                    continue
                if stripped.startswith("#"):
                    if "Nodes:" in stripped and n_hint is None:
                        try:
                            n_hint = int(stripped.split("Nodes:")[1].split()[0])
                        except (ValueError, IndexError):
                            pass
                    continue
                batch.append((lineno, stripped))
                if len(batch) >= chunk_lines:
                    arr = _parse_batch(batch, path)
                    batch = []
                    yield arr[:, 0], arr[:, 1], n_hint
    except OSError as exc:
        raise GraphFormatError(f"{path}: cannot read edge list: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not an ASCII edge list: {exc}") from exc
    if batch:
        arr = _parse_batch(batch, path)
        yield arr[:, 0], arr[:, 1], n_hint
    elif n_hint is not None:
        # Header-only file: surface the hint so vertex counts survive.
        empty = np.empty(0, dtype=INDEX_DTYPE)
        yield empty, empty, n_hint


def read_edge_list_chunked(
    path: str | os.PathLike,
    num_vertices: int | None = None,
    name: str | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> Graph:
    """Build a :class:`Graph` from an edge-list file, one chunk at a time.

    The node count is taken from ``num_vertices``, else from a
    ``# Nodes: <n>`` comment, else inferred from the largest endpoint.
    The parsed chunks are concatenated into one ``(src, dst)`` copy for
    :meth:`Graph.from_edges`; :func:`build_graph_from_shard_files` reads
    the file twice instead and never holds that copy, with a
    bit-identical result.
    """
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    n_hint = num_vertices
    for src, dst, hint in iter_edge_chunks(path, chunk_lines=chunk_lines):
        if src.size:
            srcs.append(src)
            dsts.append(dst)
        if num_vertices is None and hint is not None:
            n_hint = hint
    if srcs:
        src = np.concatenate(srcs)
        dst = np.concatenate(dsts)
    else:
        src = dst = np.empty(0, dtype=INDEX_DTYPE)
    return Graph.from_edges(src, dst, n_hint, name=name or Path(path).stem)


# ----------------------------------------------------------------------
# Two-pass out-of-core CSR/CSC construction
# ----------------------------------------------------------------------

def build_graph_from_chunks(
    make_chunks: Callable[[], Iterable[tuple[np.ndarray, np.ndarray, int | None]]],
    num_vertices: int | None = None,
    name: str = "graph",
) -> Graph:
    """Build a :class:`Graph` from a re-iterable stream of edge chunks
    without ever holding the full edge list.

    ``make_chunks`` is a zero-argument callable returning a *fresh*
    iterator of ``(src, dst, nodes_hint)`` chunks (the
    :func:`iter_edge_chunks` shape) — it is called twice, so the stream
    must be deterministic: pass 1 counts and checks the edges, pass 2
    writes each chunk's CSR and CSC pair keys into the two output arrays,
    each then sorted and reduced to the adjacency in place.  Peak memory
    is the output arrays plus one chunk, versus the
    concatenate-everything path's full ``(src, dst)`` copy.  More than
    :data:`~repro.graph.csr.MAX_VERTICES` vertices raise
    :class:`InvalidGraphError` before any O(n) allocation, and so does a
    second pass whose edges differ from the first pass's in number or
    range.

    The result is **bit-identical** to ``Graph.from_edges`` over the
    concatenated chunks: identical offsets, identical canonically-sorted
    adjacency, for both the CSR and CSC views.
    """
    with obs.span("graph.build_streaming", cat="ingest", graph=name):
        return _build_graph_from_chunks(make_chunks, num_vertices, name)


def _build_graph_from_chunks(make_chunks, num_vertices, name) -> Graph:
    n_hint = num_vertices
    hi = 0
    total = 0
    for src, dst, hint in make_chunks():
        src = np.ascontiguousarray(src, dtype=INDEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=INDEX_DTYPE)
        if src.shape != dst.shape:
            raise InvalidGraphError("src and dst must have equal length")
        if num_vertices is None and hint is not None and n_hint is None:
            n_hint = hint
        if src.size == 0:
            continue
        if src.min() < 0 or dst.min() < 0:
            raise InvalidGraphError("index endpoint out of range")
        hi = max(hi, int(src.max()) + 1, int(dst.max()) + 1)
        total += src.size
    n = int(n_hint) if n_hint is not None else hi
    if hi > n:
        raise InvalidGraphError("index endpoint out of range")

    # Pass 2: the two views' pair keys, each sorted into its view in place.
    csr_keys = np.empty(total, dtype=INDEX_DTYPE)
    csc_keys = np.empty(total, dtype=INDEX_DTYPE)
    filled = 0
    for src, dst, _hint in make_chunks():
        src = np.ascontiguousarray(src, dtype=INDEX_DTYPE)
        dst = np.ascontiguousarray(dst, dtype=INDEX_DTYPE)
        if src.size == 0:
            continue
        lo, filled = filled, filled + src.size
        if filled > total:
            break  # diagnosed below
        pair_keys(src, dst, n, out=csr_keys[lo:filled])
        pair_keys(dst, src, n, out=csc_keys[lo:filled])
    if filled != total:
        raise InvalidGraphError(
            f"chunk stream is not deterministic: pass 1 saw {total} edge(s), "
            f"pass 2 saw {'>' if filled > total else ''}{filled}"
        )
    csr = CSRMatrix.from_keys(csr_keys, n)
    return Graph(csr=csr, csc=CSRMatrix.from_keys(csc_keys, n), name=name)


def build_graph_from_shard_files(
    paths: Iterable[str | os.PathLike],
    num_vertices: int | None = None,
    name: str | None = None,
    chunk_lines: int = DEFAULT_CHUNK_LINES,
) -> Graph:
    """Out-of-core build of one graph from many edge-list shard files.

    Each shard is streamed through :func:`iter_edge_chunks` (bounded
    batches) into the two-pass builder; the full multi-shard edge list is
    never concatenated in memory.  The node count is taken from
    ``num_vertices``, else the first ``# Nodes:`` comment seen across the
    shards, else inferred from the largest endpoint.
    """
    shard_paths = [Path(p) for p in paths]
    if not shard_paths:
        raise GraphFormatError("no shard files given")

    def make_chunks():
        for p in shard_paths:
            yield from iter_edge_chunks(p, chunk_lines=chunk_lines)

    return build_graph_from_chunks(
        make_chunks,
        num_vertices=num_vertices,
        name=name or shard_paths[0].stem,
    )
