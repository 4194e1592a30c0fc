"""Independent reference implementations the test suite checks against.

Each oracle computes, by the most direct route, what an optimized code
path in ``repro`` must reproduce bit for bit.  They live in the test tree
because nothing in the library calls them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import INDEX_DTYPE


def chunk_boundaries_reference(
    in_degrees: np.ndarray, num_partitions: int
) -> np.ndarray:
    """Sequential reference scan of Algorithm 1, in exact arithmetic.

    The paper-shaped greedy: walk vertices in ID order, add each to the
    open partition, and after each addition close the partition while the
    running edge count has reached the next multiple of the exact average
    ``|E| / P`` (the ``|E[i]| >= avg`` test, applied after the vertex
    lands — so every cut consumes the vertex that reached it, and an
    overshooting hub can close several partitions at once, leaving them
    empty: Figure 1's imbalance).  The target advances by ``avg`` from
    the previous *target*, not from the achieved count, and the reach
    test is the cross-multiplied integer comparison ``c * P >= i * |E|``
    — the same predicate :func:`repro.partition.chunk_boundaries`
    vectorizes with ceil-division targets.  O(n + P) and deliberately
    loop-based.
    """
    degrees = np.ascontiguousarray(in_degrees, dtype=INDEX_DTYPE)
    n = degrees.size
    p = int(num_partitions)
    if p <= 0:
        raise PartitionError("num_partitions must be positive")
    total = int(degrees.sum())
    boundaries = np.empty(p + 1, dtype=INDEX_DTYPE)
    boundaries[0] = 0
    i = 1
    count = 0
    for v in range(n):
        if i >= p:
            break
        count += int(degrees[v])
        while i < p and count * p >= i * total:
            boundaries[i] = v + 1
            i += 1
    while i < p:  # ran out of vertices before targets: empty tail chunks
        boundaries[i] = n
        i += 1
    boundaries[p] = n
    return boundaries


def per_cell_results(cells, cache) -> list:
    """Every sweep cell computed on its own, in cell order.

    The calls a sweep without execution grouping makes: each graph is
    loaded and each (graph, ordering, partition count) prepared once,
    then every cell gets its own :func:`repro.experiments.run` — a fresh
    execution that never touches the trace store.  ``cache`` is the
    artifact cache for graphs and orderings (``False`` disables it).
    """
    from repro import store
    from repro.experiments import prepare, run
    from repro.frameworks.personality import FRAMEWORKS

    graphs: dict = {}
    prepared: dict = {}
    results = []
    for cell in cells:
        gkey = (cell.dataset, tuple(sorted(cell.params.items())))
        if gkey not in graphs:
            graphs[gkey] = store.load_graph(cell.dataset, cache=cache, **cell.params)
        graph = graphs[gkey]
        parts = FRAMEWORKS[cell.framework].default_partitions
        pkey = (gkey, cell.ordering, parts)
        if pkey not in prepared:
            prepared[pkey] = prepare(graph, cell.ordering, parts, cache=cache)
        results.append(run(
            graph, cell.algorithm, cell.framework, ordering=cell.ordering,
            prepared=prepared[pkey], backend=cell.backend,
            machine=cell.machine, **cell.algo_kwargs,
        ))
    return results
