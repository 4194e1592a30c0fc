"""SlashBurn ordering (Lim, Kang, Faloutsos — related-work extension).

SlashBurn exploits the hub structure of scale-free graphs: repeatedly
remove the k highest-degree hubs (assigning them the lowest available IDs),
then order the vertices of the shattered small components from the highest
available IDs downward, and recurse on the giant connected component.  The
result clusters the "wings" of the graph at the ID extremes and the
recursive core in the middle.

The paper cites SlashBurn as related work; we include it so the benchmark
sweep can compare a third locality-oriented ordering against VEBO.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import INDEX_DTYPE, Graph
from repro.ordering.base import register_ordering, timed_ordering

__all__ = ["slashburn_perm", "slashburn"]


def _components(src: np.ndarray, dst: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """Weakly connected components of the subgraph on ``n`` live vertices.

    scipy is imported here, not at module load: every process imports
    this module through :mod:`repro.ordering`, and only SlashBurn needs
    scipy."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    mat = coo_matrix(
        (np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n)
    )
    return connected_components(mat, directed=False)


def slashburn_perm(graph: Graph, k_fraction: float = 0.005, max_rounds: int = 64) -> np.ndarray:
    """Compute the SlashBurn permutation.

    ``k_fraction`` — hubs removed per round as a fraction of |V| (>= 1
    vertex per round).  ``max_rounds`` bounds the recursion for graphs whose
    giant component refuses to shatter (e.g. grids).
    """
    n = graph.num_vertices
    if n == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    k = max(1, int(round(n * k_fraction)))

    src0, dst0 = graph.edges()
    # Work on the undirected closure degrees, like the reference algorithm.
    live = np.ones(n, dtype=bool)
    # Global positions are handed out from both ends:
    lo = 0  # next low ID for hubs
    hi = n  # one past the next high ID block for spokes
    perm = np.full(n, -1, dtype=INDEX_DTYPE)

    src, dst = src0, dst0
    for _ in range(max_rounds):
        live_idx = np.flatnonzero(live)
        if live_idx.size == 0:
            break
        # Degrees within the live subgraph (undirected).
        deg = np.zeros(n, dtype=np.int64)
        if src.size:
            np.add.at(deg, src, 1)
            np.add.at(deg, dst, 1)
        live_deg = deg[live_idx]
        if live_deg.max(initial=0) == 0:
            # Only isolated vertices remain: assign them to the low block.
            take = live_idx
            perm[take] = np.arange(lo, lo + take.size, dtype=INDEX_DTYPE)
            lo += take.size
            live[take] = False
            break
        # 1. Slash: remove top-k live hubs, lowest IDs first.
        order = np.argsort(-live_deg, kind="stable")
        hubs = live_idx[order[: min(k, live_idx.size)]]
        perm[hubs] = np.arange(lo, lo + hubs.size, dtype=INDEX_DTYPE)
        lo += hubs.size
        live[hubs] = False
        # Drop edges incident to dead vertices.
        keep = live[src] & live[dst]
        src, dst = src[keep], dst[keep]
        # 2. Burn: find components; all but the giant one get high IDs
        # (smallest components outermost, matching the reference layout).
        ncomp, labels = _components(src, dst, n)
        live_idx = np.flatnonzero(live)
        if live_idx.size == 0:
            break
        live_labels = labels[live_idx]
        comp_sizes = np.bincount(live_labels, minlength=ncomp)
        giant = int(np.argmax(comp_sizes))
        spokes_mask = live_labels != giant
        spokes = live_idx[spokes_mask]
        if spokes.size:
            # Order spokes by (component size, component id, vertex id).
            key_size = comp_sizes[live_labels[spokes_mask]]
            order = np.lexsort((spokes, live_labels[spokes_mask], key_size))
            spokes_sorted = spokes[order]
            hi -= spokes_sorted.size
            perm[spokes_sorted] = np.arange(
                hi, hi + spokes_sorted.size, dtype=INDEX_DTYPE
            )
            live[spokes_sorted] = False
            keep = live[src] & live[dst]
            src, dst = src[keep], dst[keep]
        if comp_sizes[giant] <= k:
            # Giant core small enough: stop recursing.
            break

    # Whatever remains (the unshattered core) fills the middle gap in
    # original-id order, preserving its internal locality.
    rest = np.flatnonzero(perm < 0)
    perm[rest] = np.arange(lo, lo + rest.size, dtype=INDEX_DTYPE)
    return perm


slashburn = timed_ordering(slashburn_perm, algorithm="slashburn")
register_ordering("slashburn", slashburn)
