"""Figure 4 — per-partition execution time plus per-thread
micro-architectural statistics (LLC local/remote MPKI, TLB MKI, branch
MPKI) for PR on the Twitter stand-in under the GraphGrind personality.

Paper claims: (a) the original graph's per-partition time spread is ~10x
VEBO's; (b) cache/TLB/branch behaviour is *balanced across threads* under
VEBO; (c) the branch misprediction rate drops sharply (0.11 -> 0.04 MPKI)
because consecutive vertices share their degree after VEBO.
"""

import numpy as np
import pytest

from repro.experiments.runner import prepare, _measure_locality
from repro.machine.branch import simulate_degree_loop
from repro.machine.cache import CacheSimulator, CacheConfig, TLB_CONFIG
from repro.machine.counters import InstructionModel, ThreadCounters, mpki_table
from repro.machine.cost import DEFAULT_COST_MODEL, PartitionWork
from repro.machine.numa import PAPER_MACHINE
from repro.partition.stats import compute_stats

from conftest import print_header

P = 384
THREADS = PAPER_MACHINE.num_threads  # 48, 8 partitions per thread
_LLC_SMALL = CacheConfig(num_sets=64, ways=8, name="LLC-scaled")


def thread_counters(graph, ordering: str) -> tuple[list, np.ndarray]:
    prep = prepare(graph, ordering, P)
    g = prep.graph
    b = prep.boundaries
    stats = compute_stats(g, b)
    loc = _measure_locality(g, "csc")
    work = PartitionWork.from_stats(stats, src_miss=loc[0], dst_miss=loc[1])
    times = DEFAULT_COST_MODEL.partition_seconds(work, remote_fraction=0.15)

    csc = g.csc
    degs = csc.degrees()
    homes = PAPER_MACHINE.partition_home_sockets(P)
    vert_home = np.repeat(homes, np.diff(b))
    imodel = InstructionModel()
    counters = []
    for t in range(THREADS):
        lo_p, hi_p = t * (P // THREADS), (t + 1) * (P // THREADS)
        vlo, vhi = int(b[lo_p]), int(b[hi_p])
        elo, ehi = int(csc.offsets[vlo]), int(csc.offsets[vhi])
        srcs = csc.adj[elo:ehi]
        if srcs.size > 20000:
            srcs = srcs[:20000]
        llc = CacheSimulator(_LLC_SMALL)
        socket = PAPER_MACHINE.socket_of_thread(t)
        llc_stats = llc.access(
            srcs, home_sockets=vert_home[srcs], thread_socket=socket
        )
        tlb = CacheSimulator(TLB_CONFIG)
        tlb_stats = tlb.access(srcs)
        branch = simulate_degree_loop(degs[vlo:vhi])
        instructions = imodel.estimate(float(ehi - elo), float(vhi - vlo))
        counters.append(
            ThreadCounters(
                thread=t, instructions=instructions,
                llc=llc_stats, tlb=tlb_stats, branch=branch,
            )
        )
    return counters, times


def test_fig4(twitter, benchmark):
    orig_counters, orig_times = benchmark.pedantic(
        thread_counters, args=(twitter, "original"), rounds=1, iterations=1
    )
    vebo_counters, vebo_times = thread_counters(twitter, "vebo")

    print_header("Figure 4: per-partition time + per-thread MPKI (PR, twitter-like)")
    for label, counters, times in (
        ("original", orig_counters, orig_times),
        ("vebo", vebo_counters, vebo_times),
    ):
        table = mpki_table(counters)
        nz = times[times > 0]
        print(
            f"{label:9s} time spread {nz.max()/nz.min():6.2f}x | "
            f"LLC local {table['llc_local_mpki'].mean():6.2f} "
            f"remote {table['llc_remote_mpki'].mean():6.2f} | "
            f"TLB {table['tlb_mki'].mean():6.2f} | "
            f"branch {table['branch_mpki'].mean():6.3f} MPKI"
        )

    # (a) VEBO shrinks the per-partition time spread.
    o_nz, v_nz = orig_times[orig_times > 0], vebo_times[vebo_times > 0]
    assert v_nz.max() / v_nz.min() < (o_nz.max() / o_nz.min()) / 1.5

    # (b) branch mispredictions drop under VEBO (Fig 4e).  The paper's
    # 2.75x factor needs ~100k vertices per partition so same-degree runs
    # dominate; at laptop scale (~20 vertices per partition) the runs are
    # short, so we assert the direction and record the magnitude in
    # EXPERIMENTS.md.
    o_branch = np.array([c.branch_mpki for c in orig_counters]).mean()
    v_branch = np.array([c.branch_mpki for c in vebo_counters]).mean()
    print(f"branch MPKI: original={o_branch:.3f} vebo={v_branch:.3f} "
          f"(paper: 0.11 -> 0.04)")
    assert v_branch < o_branch

    # (c) per-thread branch behaviour is *more balanced* under VEBO.
    o_cv = np.std([c.branch_mpki for c in orig_counters]) / max(o_branch, 1e-12)
    v_cv = np.std([c.branch_mpki for c in vebo_counters]) / max(v_branch, 1e-12)
    assert v_cv < o_cv * 1.5
