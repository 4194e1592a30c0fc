"""Graph partitioning: Algorithm 1 chunking, statistics, imbalance metrics."""

from repro.partition.algorithm1 import (
    boundaries_from_counts,
    chunk_boundaries,
    partition_by_destination,
)
from repro.partition.partitioned import PartitionedGraph
from repro.partition.stats import (
    ImbalanceSummary,
    PartitionStats,
    compute_stats,
    summarize,
)

__all__ = [
    "boundaries_from_counts",
    "chunk_boundaries",
    "partition_by_destination",
    "PartitionedGraph",
    "ImbalanceSummary",
    "PartitionStats",
    "compute_stats",
    "summarize",
]
