"""Shared helpers for the algorithm suite.

Edge weights
------------
SPMV, Bellman–Ford and belief propagation need edge weights, but the
evaluation graphs are unweighted; like the original frameworks we
synthesize them.  Weights must be *invariant under vertex reordering* —
Table III compares the same computation across orderings — so they are a
hash of the edge's **original** endpoint ids.  Algorithms accept an
``orig_ids`` array (new id -> original id, i.e. the inverse of the applied
permutation) and default to the identity for unreordered graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.frameworks.trace import WorkTrace
from repro.graph.csr import INDEX_DTYPE, Graph
from repro.partition.algorithm1 import chunk_boundaries

__all__ = ["AlgorithmResult", "edge_weights", "make_engine", "default_boundaries"]

_HASH_A = np.int64(2654435761)
_HASH_B = np.int64(40503)
_WEIGHT_LEVELS = 32


def edge_weights(
    srcs: np.ndarray, dsts: np.ndarray, orig_ids: np.ndarray | None = None
) -> np.ndarray:
    """Deterministic positive integer weights in ``[1, 32]``.

    ``orig_ids`` maps current ids back to the original labelling so the
    weight of an edge survives any reordering.
    """
    s = np.asarray(srcs, dtype=np.int64)
    d = np.asarray(dsts, dtype=np.int64)
    if orig_ids is not None:
        orig = np.asarray(orig_ids, dtype=np.int64)
        s = orig[s]
        d = orig[d]
    # The weight is ``((s*A + d*B) & 0x7FFFFFFF) % 32 + 1`` in wrapping
    # int64 arithmetic.  The mask keeps the sign bit clear, so ``% 32``
    # keeps exactly the low five bits: ``& 31`` is the same number.
    h = s * _HASH_A
    h += d * _HASH_B
    h &= _WEIGHT_LEVELS - 1
    h += 1
    return h.astype(np.float64)


@dataclass
class AlgorithmResult:
    """Values computed by an algorithm plus its work trace."""

    name: str
    values: dict[str, np.ndarray]
    trace: WorkTrace
    iterations: int
    extras: dict = field(default_factory=dict)


def default_boundaries(graph: Graph, num_partitions: int) -> np.ndarray:
    """Algorithm 1 chunk boundaries — the accounting layout used when the
    caller does not supply one."""
    return chunk_boundaries(graph.in_degrees(), num_partitions)


def make_engine(
    graph: Graph,
    num_partitions: int,
    algorithm: str,
    boundaries=None,
    backend: str | None = None,
):
    """Construct an engine plus empty trace for one algorithm run.

    ``backend`` selects the engine implementation (``"vectorized"`` or
    ``"parallel"``); ``None`` defers to the ``REPRO_BACKEND`` environment
    variable and finally the ``vectorized`` default — see
    :mod:`repro.frameworks.backends`.  Backends are conformance-tested
    bit-identical, so the choice never changes results, only wall-clock
    (the parallel backend additionally reads ``REPRO_PARALLEL_WORKERS``
    for its chunk-worker count).
    """
    from repro.frameworks.backends import make_engine_backend

    if boundaries is None:
        boundaries = default_boundaries(graph, num_partitions)
    trace = WorkTrace(
        algorithm=algorithm, graph_name=graph.name, num_partitions=num_partitions
    )
    return make_engine_backend(graph, boundaries, trace, backend=backend)
