"""Compressed sparse row / column graph structures.

The library stores directed graphs in the two complementary layouts used by
shared-memory graph frameworks:

* **CSR** (compressed sparse rows) indexes edges by *source* vertex: for a
  vertex ``v`` the out-neighbours are ``dst[offsets[v]:offsets[v + 1]]``.
  Frameworks use CSR for *push*-style (forward) traversal.
* **CSC** (compressed sparse columns) indexes edges by *destination*: the
  in-neighbours of ``v`` are ``src[offsets[v]:offsets[v + 1]]``.  Frameworks
  use CSC for *pull*-style (backward) traversal, and VEBO's Algorithm 1
  partitions the CSC structure because edges follow their destination.

Both are immutable, numpy-backed, and validated on construction.  A
:class:`Graph` bundles the two views plus degree arrays so that algorithms
can switch traversal direction (Beamer's direction optimization) without
recomputing anything.

The arrays use ``int64`` indices throughout.  The paper's graphs reach
1.8 G edges; our laptop-scale stand-ins do not, but keeping 64-bit offsets
means the code paths are identical to what a full-scale run would need.

Buffer ownership: construction *borrows* already-conforming arrays
(contiguous ``int64`` passes through ``ascontiguousarray`` without a
copy — including read-only memory-mapped arrays straight off the
artifact cache) and marks every held array ``writeable=False``.  Nothing
downstream may mutate ``offsets``/``adj``; algorithms allocate their own
derived arrays.  That is what lets a cache hit under ``REPRO_MMAP=1``
flow zero-copy from disk to the engine backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.errors import InvalidGraphError

__all__ = ["CSRMatrix", "Graph", "pair_keys", "MAX_VERTICES"]

INDEX_DTYPE = np.int64

#: Largest vertex count whose pair keys ``group * n + member`` stay below
#: 2**63 (``n * n <= 2**63``): about 22x the 2**27 vertices of RMAT27.
MAX_VERTICES = 3_037_000_499


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise InvalidGraphError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        raise InvalidGraphError(f"{name} must be an integer array, got dtype {arr.dtype}")
    return np.ascontiguousarray(arr, dtype=INDEX_DTYPE)


def _check_num_vertices(n: int) -> None:
    if n > MAX_VERTICES:
        raise InvalidGraphError(
            f"{n} vertices exceed the {MAX_VERTICES} whose (group, member) "
            "sort keys fit in int64"
        )


def pair_keys(group, member, base: int, out: np.ndarray | None = None) -> np.ndarray:
    """Encode ``(group, member)`` pairs as int64 keys ``group * base + member``.

    The one canonical order of every CSR/CSC view and of
    :func:`repro.partition.stats.compute_stats`: with ``group`` and
    ``member`` in ``[0, base)``, keys are equal exactly when pairs are,
    and sorted keys are the ``lexsort`` order (group, then member);
    ``keys // base`` and ``keys % base`` read them back.  ``out`` (an
    int64 slice) lets a streaming build encode chunk by chunk.  Raises
    :class:`InvalidGraphError` when ``base`` exceeds :data:`MAX_VERTICES`.
    """
    _check_num_vertices(base)
    keys = np.multiply(group, base, out=out, dtype=INDEX_DTYPE)
    keys += member
    return keys


@dataclass(frozen=True)
class CSRMatrix:
    """One directional view of a graph: offsets + flat adjacency array.

    The semantics of ``adj`` depend on the orientation: for a CSR (out-edge)
    view, ``adj`` holds destination vertices grouped by source; for a CSC
    (in-edge) view it holds source vertices grouped by destination.

    Attributes
    ----------
    offsets:
        ``int64[n + 1]``, non-decreasing, ``offsets[0] == 0`` and
        ``offsets[n] == num_edges``.
    adj:
        ``int64[num_edges]`` flat adjacency, each entry in ``[0, n)``.
    """

    offsets: np.ndarray
    adj: np.ndarray

    def __post_init__(self) -> None:
        offsets = _as_index_array(self.offsets, "offsets")
        adj = _as_index_array(self.adj, "adj")
        if offsets.size == 0:
            raise InvalidGraphError("offsets must have at least one entry")
        if offsets[0] != 0:
            raise InvalidGraphError("offsets[0] must be 0")
        if np.any(np.diff(offsets) < 0):
            raise InvalidGraphError("offsets must be non-decreasing")
        if offsets[-1] != adj.size:
            raise InvalidGraphError(
                f"offsets[-1] ({offsets[-1]}) must equal len(adj) ({adj.size})"
            )
        n = offsets.size - 1
        if adj.size and (adj.min() < 0 or adj.max() >= n):
            raise InvalidGraphError("adjacency entries must lie in [0, num_vertices)")
        offsets.setflags(write=False)
        adj.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "adj", adj)

    # ------------------------------------------------------------------
    @classmethod
    def trusted(cls, offsets, adj) -> "CSRMatrix":
        """Construct without the O(m) adjacency range scan.

        For arrays that are already certified, e.g. loaded from the
        content-addressed artifact cache whose key is a digest of these
        very bytes.  The cheap offset invariants still run (they touch
        only the small ``offsets`` array); ``adj`` entries are *not*
        range-checked, so callers must pass only arrays a validated
        ``CSRMatrix`` previously produced.  This is what keeps a
        ``REPRO_MMAP=1`` cache hit lazy: the range scan would otherwise
        fault every page of ``adj`` straight back in.
        """
        offsets = _as_index_array(offsets, "offsets")
        adj = _as_index_array(adj, "adj")
        if offsets.size == 0:
            raise InvalidGraphError("offsets must have at least one entry")
        if offsets[0] != 0:
            raise InvalidGraphError("offsets[0] must be 0")
        if np.any(np.diff(offsets) < 0):
            raise InvalidGraphError("offsets must be non-decreasing")
        if offsets[-1] != adj.size:
            raise InvalidGraphError(
                f"offsets[-1] ({offsets[-1]}) must equal len(adj) ({adj.size})"
            )
        offsets.setflags(write=False)
        adj.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "adj", adj)
        return self

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return int(self.offsets.size - 1)

    @property
    def num_edges(self) -> int:
        return int(self.adj.size)

    def degrees(self) -> np.ndarray:
        """Per-vertex edge counts (out-degree for CSR, in-degree for CSC)."""
        return np.diff(self.offsets)

    def neighbors(self, v: int) -> np.ndarray:
        """Read-only view of the adjacency list of ``v``."""
        return self.adj[self.offsets[v] : self.offsets[v + 1]]

    def slice_edges(self, lo_vertex: int, hi_vertex: int) -> np.ndarray:
        """Edges whose *indexing* endpoint falls in ``[lo_vertex, hi_vertex)``."""
        return self.adj[self.offsets[lo_vertex] : self.offsets[hi_vertex]]

    def iter_vertices(self) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(vertex, neighbor_view)`` pairs.  Debug/test helper only;
        hot paths must operate on the flat arrays."""
        for v in range(self.num_vertices):
            yield v, self.neighbors(v)

    # ------------------------------------------------------------------
    @staticmethod
    def from_pairs(index_by: np.ndarray, other: np.ndarray, num_vertices: int) -> "CSRMatrix":
        """Build a compressed view grouping ``other`` by ``index_by``.

        ``index_by`` is the endpoint to index on (sources for CSR,
        destinations for CSC).  Within a group, entries are sorted so the
        representation is canonical: two equal edge sets always produce
        identical arrays.
        """
        index_by = _as_index_array(index_by, "index_by")
        other = _as_index_array(other, "other")
        if index_by.shape != other.shape:
            raise InvalidGraphError("endpoint arrays must have equal length")
        if index_by.size and (index_by.min() < 0 or index_by.max() >= num_vertices):
            raise InvalidGraphError("index endpoint out of range")
        if other.size and (other.min() < 0 or other.max() >= num_vertices):
            raise InvalidGraphError("other endpoint out of range")
        return CSRMatrix.from_keys(pair_keys(index_by, other, num_vertices), num_vertices)

    @staticmethod
    def from_keys(keys: np.ndarray, num_vertices: int) -> "CSRMatrix":
        """Build the canonical view of unsorted :func:`pair_keys` (base
        ``num_vertices``), consuming ``keys``: one in-place sort, offsets
        from the group starts, and an in-place remainder to the adjacency.
        Only O(n) more is allocated, after the :data:`MAX_VERTICES` check.
        """
        _check_num_vertices(num_vertices)
        keys.sort()
        group_starts = np.arange(num_vertices + 1, dtype=INDEX_DTYPE) * num_vertices
        offsets = np.searchsorted(keys, group_starts)
        return CSRMatrix(offsets=offsets, adj=np.remainder(keys, num_vertices, out=keys))

    def to_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand back to ``(indexing_endpoint, other_endpoint)`` arrays."""
        idx = np.repeat(np.arange(self.num_vertices, dtype=INDEX_DTYPE), self.degrees())
        return idx, self.adj.copy()

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets) and np.array_equal(
            self.adj, other.adj
        )

    def __hash__(self) -> int:  # dataclass(frozen) would use fields; arrays unhashable
        return hash((self.num_vertices, self.num_edges))


@dataclass(frozen=True)
class Graph:
    """An immutable directed graph with both CSR and CSC views.

    Construct via :meth:`from_edges` (or the helpers in
    :mod:`repro.graph.build`).  Parallel edges are allowed (the paper's
    generators emit them); self-loops are allowed.

    Attributes
    ----------
    csr:
        Out-edge view, ``csr.adj`` holds destinations grouped by source.
    csc:
        In-edge view, ``csc.adj`` holds sources grouped by destination.
    name:
        Free-form label used in experiment reports.
    """

    csr: CSRMatrix
    csc: CSRMatrix
    name: str = field(default="graph", compare=False)

    def __post_init__(self) -> None:
        if self.csr.num_vertices != self.csc.num_vertices:
            raise InvalidGraphError("CSR/CSC vertex counts disagree")
        if self.csr.num_edges != self.csc.num_edges:
            raise InvalidGraphError("CSR/CSC edge counts disagree")

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.csr.num_vertices

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges

    def out_degrees(self) -> np.ndarray:
        return self.csr.degrees()

    def in_degrees(self) -> np.ndarray:
        return self.csc.degrees()

    def out_neighbors(self, v: int) -> np.ndarray:
        return self.csr.neighbors(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.csc.neighbors(v)

    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, src, dst, num_vertices: int | None = None, name: str = "graph"
    ) -> "Graph":
        """Build a graph from parallel source/destination arrays.

        ``num_vertices`` defaults to one more than the largest endpoint so
        isolated trailing vertices must be requested explicitly.
        """
        src = _as_index_array(src, "src")
        dst = _as_index_array(dst, "dst")
        if src.shape != dst.shape:
            raise InvalidGraphError("src and dst must have equal length")
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        csr = CSRMatrix.from_pairs(src, dst, num_vertices)
        csc = CSRMatrix.from_pairs(dst, src, num_vertices)
        return cls(csr=csr, csc=csc, name=name)

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays in CSR (source-major) order."""
        src, dst = self.csr.to_pairs()
        return src, dst

    def edges_csc(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays in CSC (destination-major) order."""
        dst, src = self.csc.to_pairs()
        return src, dst

    # ------------------------------------------------------------------
    def reverse(self) -> "Graph":
        """The transpose graph: every edge flipped.  O(1) — swaps views."""
        return Graph(csr=self.csc, csc=self.csr, name=f"{self.name}^T")

    def max_in_degree(self) -> int:
        degs = self.in_degrees()
        return int(degs.max()) if degs.size else 0

    def max_out_degree(self) -> int:
        degs = self.out_degrees()
        return int(degs.max()) if degs.size else 0

    def num_zero_in_degree(self) -> int:
        return int(np.count_nonzero(self.in_degrees() == 0))

    def num_zero_out_degree(self) -> int:
        return int(np.count_nonzero(self.out_degrees() == 0))

    def is_symmetric(self) -> bool:
        """True when the edge multiset equals its transpose (undirected)."""
        s1, d1 = self.edges()
        s2, d2 = self.reverse().edges()
        return np.array_equal(s1, s2) and np.array_equal(d1, d2)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Graph(name={self.name!r}, n={self.num_vertices}, m={self.num_edges})"
        )
