"""Per-partition cost model: work counters + locality -> seconds.

The paper's core empirical observation (Section II, Figure 1) is that the
time to process a partition is a joint function of its **edge count** and
its **unique destination count** (and, secondarily, unique sources).  The
model used throughout the reproduction makes that dependence explicit:

    time(p) = t_edge   * edges(p)    * (1 + m_pen * src_miss(p))
            + t_dst    * unique_dsts(p) * (1 + m_pen * dst_miss(p))
            + t_src    * unique_srcs(p)
            + t_vertex * vertices(p)

where ``src_miss``/``dst_miss`` are the miss fractions of the partition's
source-gather and destination-update streams (from
:mod:`repro.machine.locality`), and a NUMA remote-access multiplier is
applied by the framework layer when the accessing thread's socket differs
from the data's home socket.

The coefficients are calibrated so one edge costs nanoseconds and one
unique destination costs a few times more (reflecting the read-modify-write
plus the cold miss on the destination line), which reproduces Figure 1's
phenomenology: among equally edge-heavy partitions, the ones with many
low-degree destinations run slower.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import SimulationError
from repro.partition.stats import PartitionStats

__all__ = ["CostModel", "PartitionWork", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class PartitionWork:
    """Work counters for one partition in one parallel loop (arrays allowed:
    the model is vectorized over partitions)."""

    edges: np.ndarray
    unique_dsts: np.ndarray
    unique_srcs: np.ndarray
    vertices: np.ndarray
    src_miss_fraction: np.ndarray | float = 0.3
    dst_miss_fraction: np.ndarray | float = 0.1

    @staticmethod
    def from_stats(stats: PartitionStats, src_miss=0.3, dst_miss=0.1) -> "PartitionWork":
        return PartitionWork(
            edges=stats.edges.astype(np.float64),
            unique_dsts=stats.unique_destinations.astype(np.float64),
            unique_srcs=stats.unique_sources.astype(np.float64),
            vertices=stats.vertices.astype(np.float64),
            src_miss_fraction=src_miss,
            dst_miss_fraction=dst_miss,
        )


@dataclass(frozen=True)
class CostModel:
    """Coefficients of the partition-time model (seconds per unit)."""

    # Calibrated against Figure 1: at 3.8 M edges per partition the fast
    # (hub-only) partitions take ~0.05 s => ~13 ns/edge on the paper's
    # machine; partitions with 3e5 extra unique destinations take ~0.2 s
    # more => ~660 ns per unique destination, i.e. the per-destination cost
    # is ~50x the per-edge cost.  Our absolute constants are smaller (they
    # only set the time unit) but keep that ratio, which is what makes
    # destination-count imbalance dominate partition time like the paper
    # observes.
    t_edge: float = 2.5e-9        # base per-edge work (gather + arithmetic)
    t_dst: float = 1.2e-7         # per unique destination (RMW, cold line,
    #                               frontier bookkeeping)
    t_src: float = 3.0e-8         # per unique source (first touch of value)
    t_vertex: float = 1.5e-9      # per owned vertex (vertexmap-style sweep)
    miss_penalty: float = 4.0     # multiplier on the miss fraction terms
    remote_factor: float = 1.8    # NUMA remote access slowdown on misses

    def __post_init__(self) -> None:
        for name in ("t_edge", "t_dst", "t_src", "t_vertex"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        if self.miss_penalty < 0 or self.remote_factor < 1.0:
            raise SimulationError("miss_penalty >= 0 and remote_factor >= 1 required")

    # ------------------------------------------------------------------
    def partition_seconds(
        self, work: PartitionWork, remote_fraction: np.ndarray | float = 0.0
    ) -> np.ndarray:
        """Vectorized time estimate per partition.

        ``remote_fraction`` is the fraction of misses served from a remote
        NUMA node (0 for perfectly NUMA-local layouts); remote misses are
        ``remote_factor`` times slower.
        """
        src_miss = np.asarray(work.src_miss_fraction, dtype=np.float64)
        dst_miss = np.asarray(work.dst_miss_fraction, dtype=np.float64)
        rf = np.asarray(remote_fraction, dtype=np.float64)
        numa_scale = 1.0 + (self.remote_factor - 1.0) * rf
        edge_t = self.t_edge * work.edges * (1.0 + self.miss_penalty * src_miss * numa_scale)
        dst_t = self.t_dst * work.unique_dsts * (1.0 + self.miss_penalty * dst_miss * numa_scale)
        src_t = self.t_src * work.unique_srcs
        vert_t = self.t_vertex * work.vertices
        return np.asarray(edge_t + dst_t + src_t + vert_t, dtype=np.float64)

    def vertexmap_seconds(
        self, vertices: np.ndarray, remote_fraction: np.ndarray | float = 0.0
    ) -> np.ndarray:
        """Time of a vertexmap sweep over per-chunk vertex counts.

        Vertexmap is bandwidth-bound streaming; the only penalty is remote
        placement of the chunk's arrays (Table V's vertexmap story)."""
        v = np.asarray(vertices, dtype=np.float64)
        rf = np.asarray(remote_fraction, dtype=np.float64)
        numa_scale = 1.0 + (self.remote_factor - 1.0) * rf
        return self.t_vertex * v * numa_scale

    def scaled(self, factor: float) -> "CostModel":
        """Uniformly scale all time coefficients (a machine's core speed:
        :attr:`~repro.machine.models.MachineModel.time_scale`)."""
        if factor <= 0:
            raise SimulationError("scale factor must be positive")
        return replace(
            self,
            t_edge=self.t_edge * factor,
            t_dst=self.t_dst * factor,
            t_src=self.t_src * factor,
            t_vertex=self.t_vertex * factor,
        )


#: Baseline coefficients every machine derives its cost model from.
DEFAULT_COST_MODEL = CostModel()
