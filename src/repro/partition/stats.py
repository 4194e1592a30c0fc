"""Per-partition statistics and imbalance metrics.

The paper measures load balance through three per-partition quantities
(Figure 1's three rows): the number of **edges**, the number of **unique
destination vertices** (destinations with at least one in-edge in the
partition) and the number of **unique source vertices**.  The optimization
criteria are the worst-case spreads Delta(n) (edges) and delta(n)
(vertices); Section II also reports the max/min *ratio* of processing
times, and Table IV uses min/median/standard-deviation/max summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import pair_keys

__all__ = ["PartitionStats", "ImbalanceSummary", "compute_stats", "summarize"]


@dataclass(frozen=True)
class PartitionStats:
    """Raw per-partition counters (arrays of length P)."""

    edges: np.ndarray
    vertices: np.ndarray          # chunk width: all vertices homed in the partition
    unique_destinations: np.ndarray  # destinations with >= 1 in-edge in the chunk
    unique_sources: np.ndarray

    @property
    def num_partitions(self) -> int:
        return int(self.edges.size)

    def edge_imbalance(self) -> int:
        """The paper's Delta: max - min edge count."""
        return int(self.edges.max() - self.edges.min()) if self.edges.size else 0

    def vertex_imbalance(self) -> int:
        """The paper's delta: max - min vertex count (chunk widths)."""
        return int(self.vertices.max() - self.vertices.min()) if self.vertices.size else 0

    def destination_imbalance(self) -> int:
        return (
            int(self.unique_destinations.max() - self.unique_destinations.min())
            if self.unique_destinations.size
            else 0
        )


@dataclass(frozen=True)
class ImbalanceSummary:
    """Distribution summary used by Table IV (min/median/sd/max) plus the
    max/min spread ratio quoted in Section II."""

    minimum: float
    median: float
    std_dev: float
    maximum: float
    mean: float

    @property
    def spread_ratio(self) -> float:
        """max/min; infinity when some partition is empty but others not."""
        if self.maximum == 0:
            return 1.0
        if self.minimum == 0:
            return float("inf")
        return self.maximum / self.minimum

    @property
    def coefficient_of_variation(self) -> float:
        return self.std_dev / self.mean if self.mean else 0.0


def summarize(values: np.ndarray) -> ImbalanceSummary:
    """Summarize any per-partition metric array."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return ImbalanceSummary(0.0, 0.0, 0.0, 0.0, 0.0)
    return ImbalanceSummary(
        minimum=float(values.min()),
        median=float(np.median(values)),
        std_dev=float(values.std()),
        maximum=float(values.max()),
        mean=float(values.mean()),
    )


def compute_stats(graph, boundaries: np.ndarray) -> PartitionStats:
    """Compute the Figure 1 counters for contiguous destination chunks.

    ``boundaries`` is ``int64[P + 1]``.  Vectorized: unique-source counts
    come from one in-place sort of every edge's (partition, source)
    :func:`~repro.graph.csr.pair_keys` rather than per-edge Python loops.
    """
    boundaries = np.asarray(boundaries, dtype=np.int64)
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise PartitionError("boundaries must be int64[P + 1]")
    p = boundaries.size - 1
    csc = graph.csc
    in_degs = csc.degrees()

    vertices = np.diff(boundaries)
    # Edge count of chunk i = sum of in-degrees over its vertex range; a
    # prefix sum turns this into O(P).
    cums = np.concatenate([[0], np.cumsum(in_degs)])
    edges = cums[boundaries[1:]] - cums[boundaries[:-1]]

    # Unique destinations = vertices in the chunk with nonzero in-degree.
    nz = np.concatenate([[0], np.cumsum((in_degs > 0).astype(np.int64))])
    unique_destinations = nz[boundaries[1:]] - nz[boundaries[:-1]]

    # Unique sources per chunk: tag every edge with the partition of its
    # destination, sort the (partition, source) keys once, and count the
    # first key of every run of equal keys.
    edge_part = np.searchsorted(boundaries[1:], np.arange(graph.num_vertices), side="right")
    parts = np.repeat(edge_part, in_degs)
    base = max(graph.num_vertices, p)  # above every partition id and source
    keys = pair_keys(parts, csc.adj, base)
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    unique_sources = np.bincount(keys[first] // base, minlength=p)

    return PartitionStats(
        edges=edges.astype(np.int64),
        vertices=vertices.astype(np.int64),
        unique_destinations=unique_destinations.astype(np.int64),
        unique_sources=unique_sources.astype(np.int64),
    )
