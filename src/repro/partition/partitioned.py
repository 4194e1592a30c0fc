"""The PartitionedGraph container binding a graph to its chunk layout."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.partition.stats import PartitionStats, compute_stats

__all__ = ["PartitionedGraph"]


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph plus contiguous destination-chunk boundaries.

    Partition ``i`` owns destination vertices ``[boundaries[i],
    boundaries[i+1])`` and every edge pointing into that range (the paper's
    ``G_i = (V, E_i)``).  All per-partition accessors are O(1) slices of the
    CSC structure — no edges are copied.
    """

    graph: Graph
    boundaries: np.ndarray

    def __post_init__(self) -> None:
        boundaries = np.ascontiguousarray(self.boundaries, dtype=INDEX_DTYPE)
        if boundaries.ndim != 1 or boundaries.size < 2:
            raise PartitionError("boundaries must be int64[P + 1]")
        if boundaries[0] != 0 or boundaries[-1] != self.graph.num_vertices:
            raise PartitionError("boundaries must span [0, num_vertices]")
        if np.any(np.diff(boundaries) < 0):
            raise PartitionError("boundaries must be non-decreasing")
        boundaries.setflags(write=False)
        object.__setattr__(self, "boundaries", boundaries)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return int(self.boundaries.size - 1)

    def vertex_range(self, p: int) -> tuple[int, int]:
        """The ``[lo, hi)`` destination range of partition ``p``."""
        return int(self.boundaries[p]), int(self.boundaries[p + 1])

    def partition_of_vertex(self, v) -> np.ndarray | int:
        """Partition id(s) owning destination vertex/vertices ``v``."""
        return np.searchsorted(self.boundaries[1:], v, side="right")

    def edge_slice(self, p: int) -> tuple[int, int]:
        """``[lo, hi)`` bounds into ``graph.csc.adj`` for partition ``p``."""
        lo, hi = self.vertex_range(p)
        return int(self.graph.csc.offsets[lo]), int(self.graph.csc.offsets[hi])

    def partition_sources(self, p: int) -> np.ndarray:
        """Source endpoints of all edges homed in partition ``p`` (view)."""
        lo, hi = self.edge_slice(p)
        return self.graph.csc.adj[lo:hi]

    def partition_in_degrees(self, p: int) -> np.ndarray:
        """In-degrees of the destination vertices owned by ``p`` (view)."""
        lo, hi = self.vertex_range(p)
        return self.graph.csc.degrees()[lo:hi]

    # ------------------------------------------------------------------
    @cached_property
    def stats(self) -> PartitionStats:
        """Per-partition edge/vertex/unique-endpoint counters (Figure 1)."""
        return compute_stats(self.graph, self.boundaries)

    # ------------------------------------------------------------------
    def edge_imbalance(self) -> int:
        return self.stats.edge_imbalance()

    def vertex_imbalance(self) -> int:
        return self.stats.vertex_imbalance()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionedGraph({self.graph.name!r}, P={self.num_partitions}, "
            f"Delta={self.edge_imbalance()}, delta={self.vertex_imbalance()})"
        )
