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

from repro.errors import SimulationError

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
    are non-negative element indices; a negative one raises
    :class:`~repro.errors.SimulationError`.

    Implementation: for every access record the stream position of the
    previous access to the same line; a hit is a reuse distance (in
    accesses, not distinct lines) of at most the window.  This
    over-approximates a real LRU stack distance but ranks orders
    identically in practice.  The accesses are grouped by line with one
    in-place sort of the int64 keys ``line * (size + window) + position``
    (the :func:`~repro.graph.csr.pair_keys` idiom): within a line the
    keys ascend by position, so consecutive keys differ by the reuse
    distance, and keys of different lines lie more than ``window`` apart,
    so the hits are exactly the key gaps of at most ``window``.  A stream
    whose keys would overflow int64 raises instead of wrapping.

    A stream whose line ids never decrease (a CSR source or CSC
    destination stream) skips the sort: each access's previous access to
    its line, if any, is its predecessor, one access back, so the hits
    are the accesses equal to their predecessor.  At ``window < 1``
    nothing hits.
    """
    if indices.size == 0:
        return 1.0
    line_ids = np.asarray(indices, dtype=np.int64) // ELEMS_PER_LINE
    ordered = not np.any(line_ids[1:] < line_ids[:-1])
    if (line_ids[0] if ordered else line_ids.min()) < 0:
        raise SimulationError("line_hit_fraction needs non-negative indices")
    if window < 1:
        return 0.0
    size = line_ids.size
    if ordered:
        return float(np.count_nonzero(line_ids[1:] == line_ids[:-1])) / size
    span = size + int(window)
    top = int(line_ids.max())
    if top * span + size - 1 > np.iinfo(np.int64).max:
        raise SimulationError(
            f"line_hit_fraction: {size} accesses at window {window} over "
            f"{top + 1} lines overflow its int64 keys"
        )
    keys = line_ids  # a fresh array: the floor division allocated it
    keys *= span
    keys += np.arange(size, dtype=np.int64)
    keys.sort()
    return float(np.count_nonzero(np.diff(keys) <= window)) / size


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
