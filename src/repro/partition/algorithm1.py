"""Algorithm 1 — locality-preserving edge-balanced chunk partitioning.

This module implements **Algorithm 1** of the paper (Sun, Vandierendonck
and Nikolopoulos, "VEBO: A Vertex- and Edge-Balanced Ordering Heuristic to
Load Balance Parallel Graph Processing", PPoPP 2019, Section II-B): the
baseline partitioner used by Ligra-derived chunked frameworks.  It assigns
*destination* vertices to partitions by walking vertices in ID order and
cutting a new partition whenever the running in-edge count reaches the
target ``|E| / P`` (the pseudo-code's ``|E[i]| >= avg`` test).  Each
partition is therefore a contiguous chunk ``[lo, hi)`` of vertex IDs — the
property that keeps indexing simple and memory NUMA-local — and holds all
edges pointing into that chunk.

Algorithm 1 is also the villain of the paper's **Figure 1**: on skewed
graphs the greedy scan overshoots the per-partition edge target by up to
a whole hub's degree, and the partitioning step itself is a measurable
fraction of end-to-end runtime.  Both observations motivate VEBO.  Here
the scan runs once per prepared (graph, ordering, P)
(:func:`repro.experiments.prepare`), not once per execution.

VEBO does not replace this partitioner: it *reorders vertices first*
(Algorithm 2, :mod:`repro.ordering.vebo`) so that chunking at every
1/P-th boundary of the new numbering yields optimal vertex and edge
balance (the pipeline of the paper's Figure 2).  When a VEBO ordering is
in effect, :func:`partition_by_destination` can instead be given VEBO's
exact boundaries via ``boundaries=``.

Complexity: the scan is ``O(n)`` after the ``O(n)`` in-degree prefix sum;
the vectorized implementation below replaces the sequential walk with a
``searchsorted`` over the cumulative degree array, which is equivalent
because each cut target is a fixed multiple of ``avg``.  The cut targets
are **exact integers** (ceil-division multiples of ``|E| / P``), so the
vectorized cuts are bit-identical to the paper's sequential scan even on
exact-boundary ties — a float target ``i * (|E| / P)`` can round to
either side of the integer cumulative count it is compared against,
flipping the paper's ``|E[i]| >= avg`` test precisely when the tie is
exact.  The test suite keeps the loop-based sequential scan as the
oracle this vectorization is differentially tested against.

Inputs (degree arrays, CSC offsets) are borrowed read-only — they may be
memory-mapped cache hits — and only the freshly allocated ``boundaries``
array is written.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import INDEX_DTYPE, Graph

__all__ = [
    "partition_by_destination",
    "chunk_boundaries",
    "boundaries_from_counts",
]


def chunk_boundaries(in_degrees: np.ndarray, num_partitions: int) -> np.ndarray:
    """Run Algorithm 1's scan and return partition end points.

    Returns ``int64[P + 1]`` with ``b[0] = 0`` and ``b[P] = n``; partition
    ``i`` owns vertices ``[b[i], b[i+1])``.  Mirrors the pseudo-code: a new
    partition starts once the current one's edge count has *reached* the
    target average ``|E| / P`` (the paper's ``|E[i]| >= avg`` test), and the
    last partition absorbs any remainder.  All arithmetic is exact: the
    property suite pins this bit-identical to the sequential scan for
    every (degrees, P).
    """
    in_degrees = np.ascontiguousarray(in_degrees, dtype=INDEX_DTYPE)
    n = in_degrees.size
    p = int(num_partitions)
    if p <= 0:
        raise PartitionError("num_partitions must be positive")
    total = int(in_degrees.sum())
    # Vectorized equivalent of the scan: partition i ends at the first
    # vertex whose cumulative in-degree c reaches (i + 1) * |E| / P — as an
    # integer test, c >= ceil((i + 1) * |E| / P).  The ceil targets are
    # computed in Python's arbitrary-precision integers (the intermediate
    # product i * |E| overflows int64 already at 2**53-scale degree sums
    # with P = 384); each *target* is <= |E| and lands back in int64
    # exactly.  O(P) Python-level work, trivial next to the O(n) cumsum.
    # This matches the sequential greedy because the running count only
    # resets the target in increments of avg.
    cums = np.cumsum(in_degrees)
    targets = np.fromiter(
        ((i * total + p - 1) // p for i in range(1, p)),
        dtype=np.int64,
        count=p - 1,
    )
    cuts = np.searchsorted(cums, targets, side="left") + 1
    cuts = np.minimum(cuts, n)
    boundaries = np.empty(p + 1, dtype=INDEX_DTYPE)
    boundaries[0] = 0
    boundaries[1:p] = np.maximum.accumulate(cuts)  # keep non-decreasing
    boundaries[p] = n
    if np.any(np.diff(boundaries) < 0):
        raise PartitionError("internal error: boundaries not monotone")
    return boundaries


def boundaries_from_counts(vertex_counts: np.ndarray) -> np.ndarray:
    """Prefix-sum per-partition vertex counts (e.g. VEBO meta) into
    boundary form."""
    counts = np.ascontiguousarray(vertex_counts, dtype=INDEX_DTYPE)
    if np.any(counts < 0):
        raise PartitionError("vertex counts must be non-negative")
    boundaries = np.zeros(counts.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=boundaries[1:])
    return boundaries


def partition_by_destination(
    graph: Graph,
    num_partitions: int,
    boundaries: np.ndarray | None = None,
) -> "PartitionedGraph":
    """Partition ``graph`` into destination-chunk partitions.

    With ``boundaries=None`` the paper's Algorithm 1 scan decides the cuts;
    passing explicit boundaries (``int64[P + 1]``) reproduces VEBO's exact
    partition layout or any other contiguous split.
    """
    from repro.partition.partitioned import PartitionedGraph  # cycle guard

    if boundaries is None:
        boundaries = chunk_boundaries(graph.in_degrees(), num_partitions)
    elif np.size(boundaries) != num_partitions + 1:
        raise PartitionError(
            f"expected {num_partitions + 1} boundaries, got {np.size(boundaries)}"
        )
    return PartitionedGraph(graph=graph, boundaries=boundaries)
