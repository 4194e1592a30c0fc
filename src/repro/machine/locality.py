"""Cheap vectorized locality metrics on memory-access streams.

The full cache simulator (:mod:`repro.machine.cache`) is exact but walks
accesses one by one; the Table III sweep needs a locality signal for
hundreds of (graph, order, algorithm) combinations, so the runtime model
uses these O(m) vectorized proxies instead:

* **line-hit fraction** — the fraction of accesses landing on a cache line
  touched within the last ``window`` accesses.  Captures spatial+short-term
  temporal locality: CSR streaming scores ~1 - 1/line, random access ~0.
* **working-set pressure** — distinct lines touched per access; a proxy for
  capacity misses when the working set exceeds the LLC.

Both metrics are deterministic functions of the address stream, so two
vertex orders can be compared with no simulation noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StreamLocality",
    "line_hit_fraction",
    "measure_stream",
    "reuse_window",
    "sequential_fraction",
]

#: 64-byte lines over 8-byte elements.
ELEMS_PER_LINE = 8


def reuse_window(num_vertices: int) -> int:
    """Reuse window (in accesses) modelling a cache much smaller than the
    graph.  The paper's graphs exceed the LLC by ~100x; our stand-ins are
    small, so the window shrinks with the vertex count to keep the
    cache:graph ratio — and therefore the *relative* locality of different
    orders — comparable."""
    return int(min(4096, max(64, num_vertices // 12)))


@dataclass(frozen=True)
class StreamLocality:
    """Locality summary of one access stream."""

    num_accesses: int
    line_hit_fraction: float      # short-window temporal/spatial hits
    sequential_fraction: float    # |addr[i] - addr[i-1]| < line
    distinct_lines: int           # total footprint, in lines
    footprint_per_access: float   # distinct_lines / num_accesses

    def miss_fraction(self) -> float:
        return 1.0 - self.line_hit_fraction


def line_hit_fraction(indices: np.ndarray, window: int = 4096) -> float:
    """Fraction of accesses whose cache line was touched in the previous
    ``window`` accesses (a fixed-window LRU approximation).  ``indices``
    are non-negative element indices.

    Implementation: for every access record the stream position of the
    previous access to the same line; a hit is a reuse distance (in
    accesses, not distinct lines) below the window.  This
    over-approximates a real LRU stack distance but ranks orders
    identically in practice.  The accesses are grouped by line with a
    stable bucket sort (line ids are small non-negative integers: one
    16-bit radix pass below 65,536 lines), whose permutation is itself
    the sorted stream positions.

    A stream whose line ids never decrease (a CSR source or CSC
    destination stream) skips the sort: each access's previous access to
    its line, if any, is its predecessor, one access back, so with
    ``window >= 1`` the hits are the accesses equal to their predecessor
    — the same count, hence the same float.  (At ``window < 1`` nothing
    hits, and the general path says so.)
    """
    from repro.ordering.base import stable_bucket_argsort

    if indices.size == 0:
        return 1.0
    line_ids = np.asarray(indices, dtype=np.int64) // ELEMS_PER_LINE
    if window >= 1 and not np.any(line_ids[1:] < line_ids[:-1]):
        repeats = np.count_nonzero(line_ids[1:] == line_ids[:-1])
        return float(repeats) / line_ids.size
    pos = stable_bucket_argsort(line_ids)
    sorted_lines = line_ids[pos]
    same = np.empty(line_ids.size, dtype=bool)
    same[0] = False
    same[1:] = sorted_lines[1:] == sorted_lines[:-1]
    gap = np.empty(line_ids.size, dtype=np.int64)
    gap[0] = np.iinfo(np.int64).max
    gap[1:] = pos[1:] - pos[:-1]
    hits = same & (gap <= window)
    return float(np.count_nonzero(hits)) / line_ids.size


def sequential_fraction(indices: np.ndarray) -> float:
    """Fraction of accesses within one cache line of their predecessor."""
    if indices.size <= 1:
        return 1.0
    idx = np.asarray(indices, dtype=np.int64)
    return float(
        np.count_nonzero(np.abs(np.diff(idx)) < ELEMS_PER_LINE)
    ) / (idx.size - 1)


def measure_stream(indices: np.ndarray, window: int = 4096) -> StreamLocality:
    """Compute the full :class:`StreamLocality` summary for a stream of
    element indices into one array."""
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return StreamLocality(0, 1.0, 1.0, 0, 0.0)
    lines = idx // ELEMS_PER_LINE
    distinct = int(np.unique(lines).size)
    return StreamLocality(
        num_accesses=int(idx.size),
        line_hit_fraction=line_hit_fraction(idx, window=window),
        sequential_fraction=sequential_fraction(idx),
        distinct_lines=distinct,
        footprint_per_access=distinct / idx.size,
    )
