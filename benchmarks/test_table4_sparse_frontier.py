"""Table IV — distribution of active edges over partitions for the sparse
BFS iterations on the Twitter stand-in, 384 partitions.

Paper claims: during the dominant iterations, the Original order leaves
many partitions with zero active edges while VEBO raises the minimum and
median and reduces the standard deviation (up to 1.5x) and the min-max
gap.
"""

import numpy as np
import pytest

from repro.algorithms import bfs
from repro.experiments.runner import prepare
from repro.metrics import format_table

from conftest import print_header

P = 384


def bfs_partition_distribution(graph, ordering: str):
    prep = prepare(graph, ordering, P)
    g = prep.graph
    b = prep.boundaries
    src = int(prep.perm[int(np.argmax(graph.out_degrees()))])
    res = bfs(g, source=src, num_partitions=P, boundaries=b)
    return [r for r in res.trace.records if r.kind == "edgemap"]


def test_table4(twitter, benchmark):
    orig = benchmark.pedantic(
        bfs_partition_distribution, args=(twitter, "original"), rounds=1, iterations=1
    )
    vebo = bfs_partition_distribution(twitter, "vebo")

    rows = []
    improvements = []
    for it, (ro, rv) in enumerate(zip(orig, vebo)):
        if ro.active_edges == 0:
            continue
        rows.append(
            {
                "Iter": it,
                "ActiveEdges": ro.active_edges,
                "Ideal/Part": round(ro.active_edges / P, 1),
                "Min(orig)": int(ro.part_edges.min()),
                "Min(VEBO)": int(rv.part_edges.min()),
                "Med(orig)": float(np.median(ro.part_edges)),
                "Med(VEBO)": float(np.median(rv.part_edges)),
                "SD(orig)": float(ro.part_edges.std()),
                "SD(VEBO)": float(rv.part_edges.std()),
                "Max(orig)": int(ro.part_edges.max()),
                "Max(VEBO)": int(rv.part_edges.max()),
            }
        )
        if ro.active_edges > P:  # meaningful iterations only
            improvements.append(ro.part_edges.std() / max(rv.part_edges.std(), 1e-9))

    print_header("Table IV: active-edge distribution per partition (BFS)")
    print(format_table(rows))

    assert improvements, "BFS produced no meaningful iterations"
    # VEBO reduces the standard deviation on the dominant iterations.
    gm = float(np.exp(np.mean(np.log(improvements))))
    print(f"geomean SD reduction: {gm:.2f}x (paper: up to 1.5x)")
    assert gm > 1.0

    # VEBO has fewer zero-active partitions overall.
    zeros_orig = sum(int((r.part_edges == 0).sum()) for r in orig if r.active_edges > P)
    zeros_vebo = sum(int((r.part_edges == 0).sum()) for r in vebo if r.active_edges > P)
    print(f"zero-active partition slots: original={zeros_orig} vebo={zeros_vebo}")
    assert zeros_vebo <= zeros_orig
