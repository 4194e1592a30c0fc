"""Connected components by label propagation (the paper's CC).

Every vertex starts with its own id as a label; each round, active
vertices push their label and destinations keep the minimum.  Labels
converge to the minimum vertex id of each (weakly) connected component.

Two execution modes matter for the reproduction:

* **synchronous** — reads see the previous round's labels (the engine's
  normal double-buffered semantics).  Round count equals the label-
  propagation diameter.
* **asynchronous** — partitions are processed in order within a round and
  updates are visible immediately, so a label can cross many vertices in
  one round.  Section V-B observes that vertex reordering *amplifies* this
  accelerated propagation on the road network — the one case where VEBO
  speeds up USAroad — so the async mode is essential for reproducing that
  row of Table III.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import AlgorithmResult, make_engine
from repro.frameworks.engine import EdgeOp
from repro.frameworks.frontier import Frontier
from repro.graph.csr import Graph

__all__ = ["connected_components"]


def _cc_sync(graph: Graph, num_partitions: int, boundaries, max_iterations: int, backend=None):
    n = graph.num_vertices
    engine = make_engine(graph, num_partitions, "CC", boundaries, backend=backend)
    state = {"label": np.arange(n, dtype=np.float64)}

    def gather(srcs, dsts, st):
        return st["label"][srcs]

    def apply(touched, reduced, st):
        better = reduced < st["label"][touched]
        st["label"][touched[better]] = reduced[better]
        return better

    op = EdgeOp(gather=gather, reduce="min", apply=apply, identity=np.inf)
    # Label propagation must move both ways to find *weakly* connected
    # components on a directed graph; like Ligra we run on the union of
    # directions by alternating push over G and G^T each round.
    frontier = Frontier.all_vertices(n)
    reverse = graph.reverse()
    engine_rev = make_engine(reverse, num_partitions, "CC", boundaries, backend=backend)
    iterations = 0
    while not frontier.is_empty() and iterations < max_iterations:
        f_fwd = engine.edgemap(frontier, op, state, direction="auto")
        f_bwd = engine_rev.edgemap(frontier, op, state, direction="auto")
        mask = f_fwd.mask | f_bwd.mask
        frontier = Frontier.from_mask(mask)
        iterations += 1
    # Merge the reverse engine's steps into the primary trace so the
    # pricing layer sees all work.
    engine.trace.extend(engine_rev.trace)
    return state, engine.trace, iterations


def _cc_async(graph: Graph, num_partitions: int, boundaries, max_iterations: int, backend=None):
    """Asynchronous label propagation: within a round, partitions are
    processed in id order and each reads the labels already updated by its
    predecessors (GraphLab-style asynchrony, single logical thread)."""
    engine = make_engine(graph, num_partitions, "CC", boundaries, backend=backend)
    bounds = engine.boundaries
    n = graph.num_vertices
    label = np.arange(n, dtype=np.int64)
    csc = graph.csc
    # The engine's own destination stream.  A sweep's record is a dense
    # pull step's (every vertex active, every edge read), so the vectorized
    # engine replays its memoized dense-pull record for every sweep.
    csc_dst = engine._csc_dst
    csr = graph.csr
    csr_src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())

    iterations = 0
    changed = True
    frontier = Frontier.all_vertices(n)
    while changed and iterations < max_iterations:
        changed = False
        for p in range(bounds.size - 1):
            lo, hi = int(bounds[p]), int(bounds[p + 1])
            # Pull pass over the partition's in-edges with *current* labels.
            e_lo, e_hi = int(csc.offsets[lo]), int(csc.offsets[hi])
            srcs = csc.adj[e_lo:e_hi]
            dsts = csc_dst[e_lo:e_hi]
            if srcs.size:
                cand = label[srcs]
                acc = label.copy()
                np.minimum.at(acc, dsts, cand)
                upd = acc[lo:hi] < label[lo:hi]
                if upd.any():
                    label[lo:hi] = acc[lo:hi]
                    changed = True
            # Reverse pass: pull the labels of out-neighbours back into the
            # partition's source vertices, so labels flow against edge
            # direction too (weak connectivity on directed graphs).
            s_lo, s_hi = int(csr.offsets[lo]), int(csr.offsets[hi])
            outs = csr.adj[s_lo:s_hi]
            osrc = csr_src[s_lo:s_hi]
            if outs.size:
                acc = label.copy()
                np.minimum.at(acc, osrc, label[outs])
                upd = acc < label
                if upd.any():
                    label[upd] = acc[upd]
                    changed = True
        # One trace record per asynchronous sweep (all edges touched).
        engine._record_edgemap("pull", frontier, csc.adj, csc_dst)
        iterations += 1
    return {"label": label.astype(np.float64)}, engine.trace, iterations


def connected_components(
    graph: Graph,
    num_partitions: int = 384,
    boundaries=None,
    mode: str = "sync",
    max_iterations: int = 1000,
    backend: str | None = None,
) -> AlgorithmResult:
    """Weakly connected components; ``mode`` is ``"sync"`` or ``"async"``."""
    if mode == "sync":
        state, trace, iterations = _cc_sync(graph, num_partitions, boundaries, max_iterations, backend)
    elif mode == "async":
        state, trace, iterations = _cc_async(graph, num_partitions, boundaries, max_iterations, backend)
    else:
        raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")
    return AlgorithmResult(
        name="CC",
        values={"label": state["label"].astype(np.int64)},
        trace=trace,
        iterations=iterations,
        extras={"mode": mode},
    )
