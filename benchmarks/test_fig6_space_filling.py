"""Figure 6 — space-filling-curve study: (a) high-to-low degree sort with
Hilbert edge order vs VEBO; (b) Hilbert vs CSR edge order per partition.

Paper claims: (a) the first partitions of the high-to-low order (pure
hubs) process faster than VEBO's mixed partitions while the last
(degree-1-only) partitions are up to 3x slower; (b) CSR order beats
Hilbert order for most partitions once VEBO has homogenized the degree
distribution per partition.
"""

import numpy as np
import pytest

from repro.edgeorder.hilbert import hilbert_order_edges
from repro.experiments.runner import prepare
from repro.graph.coo import COOEdges
from repro.machine.cost import DEFAULT_COST_MODEL, PartitionWork
from repro.machine.locality import line_hit_fraction, reuse_window
from repro.partition.stats import compute_stats

from conftest import print_header

P = 384


def per_partition_times(graph, ordering: str, edge_order: str):
    prep = prepare(graph, ordering, P)
    g = prep.graph
    b = prep.boundaries
    stats = compute_stats(g, b)
    # per-partition miss fractions measured from the partition's own edge
    # stream, in the chosen traversal order
    window = reuse_window(g.num_vertices)
    if edge_order == "hilbert":
        coo = hilbert_order_edges(COOEdges.from_graph(g, order="csr"))
    else:
        coo = COOEdges.from_graph(g, order="csr")
    part_of = np.searchsorted(b[1:], coo.dst, side="right")
    src_miss = np.zeros(P)
    for p in range(P):
        sel = coo.src[part_of == p]
        if sel.size:
            src_miss[p] = 1.0 - line_hit_fraction(sel, window=window)
    work = PartitionWork.from_stats(stats, src_miss=src_miss, dst_miss=0.05)
    return DEFAULT_COST_MODEL.partition_seconds(work, remote_fraction=0.15)


def test_fig6a_high_to_low_vs_vebo(twitter, benchmark):
    h2l = benchmark.pedantic(
        per_partition_times, args=(twitter, "degree-sort", "hilbert"),
        rounds=1, iterations=1,
    )
    veb = per_partition_times(twitter, "vebo", "csr")

    print_header("Figure 6a: high-to-low + Hilbert vs VEBO + CSR")
    k = P // 8
    print(f"first {k} partitions: h2l={h2l[:k].mean()*1e6:.2f}us "
          f"vebo={veb[:k].mean()*1e6:.2f}us")
    print(f"last  {k} partitions: h2l={h2l[-k:].mean()*1e6:.2f}us "
          f"vebo={veb[-k:].mean()*1e6:.2f}us")

    # (a) hub-only head partitions of high-to-low are fast; the degree-1
    # tail partitions are much slower than VEBO's homogeneous partitions.
    assert h2l[:k].mean() < veb[:k].mean()
    assert h2l[-k:].mean() > 1.5 * veb[-k:].mean()
    # VEBO's partition times are far more uniform.
    assert veb.std() / veb.mean() < h2l.std() / h2l.mean()


def test_fig6b_hilbert_vs_csr_after_degree_sort(twitter, benchmark):
    hilbert = benchmark.pedantic(
        per_partition_times, args=(twitter, "degree-sort", "hilbert"),
        rounds=1, iterations=1,
    )
    csr = per_partition_times(twitter, "degree-sort", "csr")

    print_header("Figure 6b: Hilbert vs CSR edge order (high-to-low sort)")
    frac_csr_wins = float((csr <= hilbert).mean())
    print(f"CSR is at least as fast on {frac_csr_wins*100:.0f}% of partitions")
    print(f"totals: hilbert={hilbert.sum()*1e3:.3f}ms csr={csr.sum()*1e3:.3f}ms")

    # (b) CSR order wins for the majority of (high-degree) partitions —
    # the observation that made the authors switch GraphGrind's COO to
    # CSR order under VEBO.
    assert frac_csr_wins > 0.5
