"""PageRank by the power method (the paper's PR, 10 iterations).

Pull-based dense edgemap: every iteration gathers ``rank[src] / outdeg[src]``
over all in-edges and rebuilds every rank.  This is the canonical
*edge-oriented* algorithm — work per iteration is proportional to |E| — and
its per-partition processing time is what Figures 1, 4 and 6 plot.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.graph.csr import Graph

__all__ = ["pagerank"]


def pagerank(
    graph: Graph,
    num_iterations: int = 10,
    damping: float = 0.85,
    num_partitions: int = 384,
    boundaries=None,
    backend: str | None = None,
) -> AlgorithmResult:
    """Run ``num_iterations`` of the power method; returns ranks and trace."""
    n = graph.num_vertices
    engine = make_engine(graph, num_partitions, "PR", boundaries, backend=backend)
    out_degs = graph.out_degrees().astype(np.float64)
    safe_out = np.maximum(out_degs, 1.0)  # dangling vertices contribute 0

    state = {
        "rank": np.full(n, 1.0 / n, dtype=np.float64),
        "next": np.zeros(n, dtype=np.float64),
    }

    def gather(srcs, dsts, st):
        # One quotient per vertex, then one gather: each edge gets the
        # same IEEE quotient as dividing per edge.
        return (st["rank"] / safe_out)[srcs]

    def apply(touched, reduced, st):
        st["next"][touched] = reduced
        return np.ones(touched.size, dtype=bool)

    op = EdgeOp(gather=gather, reduce="add", apply=apply, identity=0.0)
    frontier = Frontier.all_vertices(n)
    for _ in range(num_iterations):
        state["next"].fill(0.0)
        engine.edgemap(frontier, op, state, direction="pull")
        # vertexmap: fold in the teleport term and swap buffers.
        def finish(ids, st):
            # Elementwise over exactly ``ids`` (the vertexmap contract) so
            # the parallel backend's per-band invocations compose.  ids are
            # sorted unique, so size == n means the full range — use the
            # whole-array form then (same arithmetic, no scatter copies).
            if ids.size == n:
                np.multiply(st["next"], damping, out=st["rank"])
                st["rank"] += (1.0 - damping) / n
            else:
                st["rank"][ids] = (1.0 - damping) / n + damping * st["next"][ids]
            return None

        engine.vertexmap(frontier, finish, state)
    return AlgorithmResult(
        name="PR",
        values={"rank": state["rank"]},
        trace=engine.trace,
        iterations=num_iterations,
    )
