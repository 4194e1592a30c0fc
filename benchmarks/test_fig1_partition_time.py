"""Figure 1 — per-partition processing time vs edges / destinations /
sources, Original vs VEBO, 384 partitions, one PR iteration.

The paper's claims: (i) Algorithm 1 achieves good edge balance but
execution time still varies 6.9x (Twitter) / 2x (Friendster); (ii) VEBO
cuts the spread to ~1.6x / 1.4x; (iii) time correlates with the number of
unique destination vertices.
"""

import numpy as np
import pytest

from repro.experiments.runner import prepare, _measure_locality
from repro.frameworks.personality import GRAPHGRIND
from repro.machine.cost import DEFAULT_COST_MODEL, PartitionWork
from repro.partition.stats import compute_stats, summarize

from conftest import print_header

P = 384


def partition_times(graph, ordering: str):
    prep = prepare(graph, ordering, P)
    g = prep.graph
    b = prep.boundaries
    stats = compute_stats(g, b)
    loc = _measure_locality(g, "csc")
    work = PartitionWork.from_stats(stats, src_miss=loc[0], dst_miss=loc[1])
    times = DEFAULT_COST_MODEL.partition_seconds(work, remote_fraction=0.15)
    return stats, times


@pytest.mark.parametrize("dataset", ["twitter", "friendster"])
def test_fig1_partition_time(dataset, benchmark, request):
    graph = request.getfixturevalue(dataset)
    results = {}
    for ordering in ("original", "vebo"):
        if ordering == "original":
            stats, times = benchmark(partition_times, graph, ordering)
        else:
            stats, times = partition_times(graph, ordering)
        results[ordering] = (stats, times)

    print_header(f"Figure 1 ({dataset}): per-partition time, {P} partitions")
    for ordering, (stats, times) in results.items():
        s = summarize(times)
        nonzero = times[times > 0]
        spread = (nonzero.max() / nonzero.min()) if nonzero.size else 1.0
        print(
            f"{ordering:9s} edges[{stats.edges.min()},{stats.edges.max()}] "
            f"dsts[{stats.unique_destinations.min()},{stats.unique_destinations.max()}] "
            f"srcs[{stats.unique_sources.min()},{stats.unique_sources.max()}] "
            f"time mean={s.mean*1e6:8.2f}us spread={spread:6.2f}x"
        )

    o_stats, o_times = results["original"]
    v_stats, v_times = results["vebo"]

    # (i) original is edge-balanced-ish but time spread is large
    o_nonzero = o_times[o_times > 0]
    v_nonzero = v_times[v_times > 0]
    o_spread = o_nonzero.max() / o_nonzero.min()
    v_spread = v_nonzero.max() / v_nonzero.min()
    # (ii) VEBO shrinks the spread substantially
    assert v_spread < o_spread / 1.5, (o_spread, v_spread)
    # VEBO's structural balance: edges within a few, vertices within 1
    assert v_stats.vertex_imbalance() <= 1
    assert v_stats.edge_imbalance() <= max(1, o_stats.edge_imbalance() // 10)

    # (iii) time correlates with destination count under the original order
    corr = np.corrcoef(
        o_stats.unique_destinations.astype(float), o_times
    )[0, 1]
    print(f"correlation(time, unique destinations) original: {corr:.3f}")
    assert corr > 0.5
