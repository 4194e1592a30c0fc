"""PageRankDelta — the incremental PageRank variant (the paper's PRD).

Only vertices whose rank changed by more than a tolerance propagate their
*delta* forward; the frontier therefore starts dense and thins out as
low-degree vertices converge first.  This is the algorithm behind the
paper's motivating observation (Section I): about half of the low-degree
vertices converge before any high-degree vertex does, so a partition of
mostly high-degree vertices stays busy while low-degree partitions go idle
— edge balance alone cannot fix that.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.graph.csr import Graph

__all__ = ["pagerank_delta"]


def pagerank_delta(
    graph: Graph,
    max_iterations: int = 20,
    damping: float = 0.85,
    epsilon: float = 1e-7,
    delta_threshold: float = 1e-2,
    num_partitions: int = 384,
    boundaries=None,
    backend: str | None = None,
) -> AlgorithmResult:
    """Delta-propagating PageRank (forward/push traversal, per Table II).

    A vertex re-enters the frontier when the magnitude of its accumulated
    delta exceeds ``delta_threshold`` times its current rank (Ligra's
    acceptance rule).  Terminates when the frontier empties or after
    ``max_iterations``.
    """
    n = graph.num_vertices
    engine = make_engine(graph, num_partitions, "PRD", boundaries, backend=backend)
    out_degs = graph.out_degrees().astype(np.float64)
    safe_out = np.maximum(out_degs, 1.0)

    state = {
        "rank": np.full(n, (1.0 - damping) / n, dtype=np.float64),
        "delta": np.full(n, (1.0 - damping) / n, dtype=np.float64),
        "acc": np.zeros(n, dtype=np.float64),
    }

    def gather(srcs, dsts, st):
        # One quotient per vertex, then one gather: each edge gets the
        # same IEEE quotient as dividing per edge.
        return (st["delta"] / safe_out)[srcs]

    def apply(touched, reduced, st):
        st["acc"][touched] = reduced
        new_delta = damping * reduced
        rank = st["rank"][touched]
        accept = np.abs(new_delta) > np.maximum(delta_threshold * rank, epsilon)
        st["rank"][touched] = rank + new_delta
        st["delta"][touched] = new_delta
        return accept

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)
    frontier = Frontier.all_vertices(n)
    iterations = 0
    for _ in range(max_iterations):
        if frontier.is_empty():
            break
        frontier = engine.edgemap(frontier, op, state, direction="push")
        iterations += 1
    return AlgorithmResult(
        name="PRD",
        values={"rank": state["rank"]},
        trace=engine.trace,
        iterations=iterations,
    )
