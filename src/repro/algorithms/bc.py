"""Betweenness centrality from a single source (the paper's BC).

Brandes' algorithm, frontier-style as in Ligra: a forward BFS phase counts
shortest paths (sigma) level by level, then a backward phase walks the
levels in reverse accumulating dependencies.  Vertex-oriented: work follows
the frontier, which runs medium-dense to sparse (Table II), and the
dominant traversal is backward (B).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.graph.csr import Graph

__all__ = ["betweenness_centrality"]


def betweenness_centrality(
    graph: Graph,
    source: int = 0,
    num_partitions: int = 384,
    boundaries=None,
    backend: str | None = None,
) -> AlgorithmResult:
    """Single-source BC scores (unnormalized, directed paths)."""
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range")
    engine = make_engine(graph, num_partitions, "BC", boundaries, backend=backend)

    level = np.full(n, -1, dtype=np.int64)
    sigma = np.zeros(n, dtype=np.float64)
    level[source] = 0
    sigma[source] = 1.0

    state = {"sigma_acc": np.zeros(n, dtype=np.float64), "level": level, "depth": 0}

    def gather_fwd(srcs, dsts, st):
        return sigma[srcs]

    def apply_fwd(touched, reduced, st):
        fresh = st["level"][touched] < 0
        upd = touched[fresh]
        st["level"][upd] = st["depth"]
        sigma[upd] += reduced[fresh]
        return fresh

    op_fwd = EdgeOp(gather=gather_fwd, reduce="add", apply=apply_fwd, identity=0.0)

    # Forward phase: record the frontier of each level.
    levels: list[np.ndarray] = [np.array([source], dtype=np.int64)]
    frontier = Frontier.from_ids(levels[0], n)
    while not frontier.is_empty():
        state["depth"] += 1
        frontier = engine.edgemap(frontier, op_fwd, state, direction="auto")
        if frontier.is_empty():
            break
        levels.append(frontier.ids.copy())

    # Backward phase: dependency accumulation over the transpose graph.
    delta = np.zeros(n, dtype=np.float64)
    reverse = graph.reverse()
    engine_rev = make_engine(reverse, num_partitions, "BC", boundaries, backend=backend)

    def gather_bwd(srcs, dsts, st):
        # src here is the deeper vertex w; contribution to its predecessors.
        return sigma_safe_inv[srcs] * (1.0 + delta[srcs])

    def apply_bwd(touched, reduced, st):
        mask = st["pred_mask"][touched]
        upd = touched[mask]
        delta[upd] += sigma[upd] * reduced[mask]
        return mask

    sigma_safe_inv = np.where(sigma > 0, 1.0 / np.maximum(sigma, 1e-300), 0.0)
    op_bwd = EdgeOp(gather=gather_bwd, reduce="add", apply=apply_bwd, identity=0.0)

    for d in range(len(levels) - 1, 0, -1):
        deeper = levels[d]
        pred_mask = np.zeros(n, dtype=bool)
        pred_mask[levels[d - 1]] = True
        state_bwd = {"pred_mask": pred_mask}
        engine_rev.edgemap(
            Frontier.from_ids(deeper, n), op_bwd, state_bwd, direction="auto"
        )

    engine.trace.extend(engine_rev.trace)
    bc = delta.copy()
    bc[source] = 0.0
    return AlgorithmResult(
        name="BC",
        values={"bc": bc, "sigma": sigma, "level": state["level"]},
        trace=engine.trace,
        iterations=len(levels),
    )
