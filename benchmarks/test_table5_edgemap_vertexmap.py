"""Table V — architectural events for vertexmap versus edgemap (LLC local
and remote misses, TLB misses) for PR and BF on the Twitter and Friendster
stand-ins.

Paper claims: (a) vertexmap's remote misses drop sharply under VEBO
because equal vertex counts per partition keep each thread on NUMA-local
chunks; (b) edgemap misses generally improve (Friendster) or stay roughly
level (Twitter PR is the paper's counter-example).
"""

import numpy as np
import pytest

from repro.experiments.runner import prepare
from repro.machine.cache import CacheConfig, CacheSimulator, TLB_CONFIG
from repro.machine.numa import PAPER_MACHINE
from repro.metrics import format_table

from conftest import print_header

P = 384
_LLC_SMALL = CacheConfig(num_sets=64, ways=8, name="LLC-scaled")


def simulate_events(graph, ordering: str):
    """Per-ordering cache/TLB events for edgemap (csc traversal) and
    vertexmap (block sweep over the vertex array)."""
    prep = prepare(graph, ordering, P)
    g = prep.graph
    b = prep.boundaries
    homes = PAPER_MACHINE.partition_home_sockets(P)
    vert_home = np.repeat(homes, np.diff(b))
    n = g.num_vertices

    # --- edgemap: gather x[src] over the csc stream (sampled) ---
    srcs = g.csc.adj
    if srcs.size > 60000:
        srcs = srcs[:60000]
    llc_e = CacheSimulator(_LLC_SMALL)
    e_stats = llc_e.access(srcs, home_sockets=vert_home[srcs], thread_socket=0)
    tlb_e = CacheSimulator(TLB_CONFIG)
    te_stats = tlb_e.access(srcs)

    # --- vertexmap: each of 48 threads sweeps an equal slice of the
    # vertex range; remote events = elements homed off the thread's socket.
    blocks = PAPER_MACHINE.thread_blocks(n)
    remote = 0
    local = 0
    for t, (lo, hi) in enumerate(blocks):
        socket = PAPER_MACHINE.socket_of_thread(t)
        seg = vert_home[lo:hi]
        lines = (hi - lo + 7) // 8
        if hi > lo:
            remote_frac = float((seg != socket).mean())
        else:
            remote_frac = 0.0
        remote += int(lines * remote_frac)
        local += int(lines * (1 - remote_frac))
    kinstr_v = max(1.0, n * 6.0 / 1000.0)
    kinstr_e = max(1.0, srcs.size * 12.0 / 1000.0)
    return {
        "vm_local": local / kinstr_v,
        "vm_remote": remote / kinstr_v,
        "em_local": e_stats.misses_local / kinstr_e,
        "em_remote": e_stats.misses_remote / kinstr_e,
        "em_tlb": te_stats.misses / kinstr_e,
    }


@pytest.mark.parametrize("dataset", ["twitter", "friendster"])
def test_table5(dataset, benchmark, request):
    graph = request.getfixturevalue(dataset)
    orig = benchmark.pedantic(
        simulate_events, args=(graph, "original"), rounds=1, iterations=1
    )
    veb = simulate_events(graph, "vebo")

    print_header(f"Table V ({dataset}): vertexmap vs edgemap events (MPKI)")
    rows = [
        {"Order": "Original", **{k: round(v, 3) for k, v in orig.items()}},
        {"Order": "VEBO", **{k: round(v, 3) for k, v in veb.items()}},
    ]
    print(format_table(rows))

    # (a) vertexmap remote misses drop under VEBO (equal chunk widths mean
    # thread blocks align with partition homes).
    assert veb["vm_remote"] <= orig["vm_remote"] + 1e-9

    # (b) edgemap events stay within the same order of magnitude — VEBO
    # does not wreck locality (Twitter PR may tick up, per the paper).
    assert veb["em_local"] + veb["em_remote"] < 3 * (
        orig["em_local"] + orig["em_remote"]
    )


@pytest.mark.parametrize("ordering", ["original", "vebo"])
def test_table5_engine_trace_matches_simulated_workload(twitter, ordering, benchmark):
    """The cache-simulated workload above and the engine's work accounting
    describe the same traversal.  Runs on the engine backend selected by
    ``REPRO_BACKEND``, else the default (the CI matrix covers each), tying
    Table V to the same execution core as every other table: one dense
    pull edgemap plus one dense vertexmap must account for every in-edge
    and every vertex, distributed over the same Algorithm 1 chunks the
    simulation used."""
    from repro.algorithms.common import make_engine
    from repro.frameworks.backends import resolve_backend
    from repro.frameworks.engine import EdgeOp
    from repro.frameworks.frontier import Frontier

    prep = prepare(twitter, ordering, P)
    g = prep.graph
    b = prep.boundaries
    engine = make_engine(g, P, "T5", boundaries=b)  # REPRO_BACKEND decides
    n = g.num_vertices
    op = EdgeOp(
        gather=lambda s, d, st: np.ones(s.size),
        reduce="add",
        apply=lambda t, r, st: np.ones(t.size, dtype=bool),
        identity=0.0,
    )
    frontier = Frontier.all_vertices(n)
    benchmark.pedantic(
        lambda: engine.edgemap(frontier, op, {}, direction="pull"),
        rounds=1, iterations=1,
    )
    engine.vertexmap(frontier, lambda ids, st: None, {})
    em, vm = engine.trace.records
    print_header(
        f"Table V ({ordering}): engine-trace totals ({resolve_backend()} backend)"
    )
    print(f"edgemap edges {em.total_edges()} (|E| = {g.num_edges}), "
          f"vertexmap vertices {int(vm.part_vertices.sum())} (n = {n})")
    # Every in-edge lands in exactly one chunk; chunk widths cover n.
    assert em.total_edges() == g.num_edges
    assert np.array_equal(em.part_edges, np.diff(g.csc.offsets[b]))
    assert int(vm.part_vertices.sum()) == n
    assert np.array_equal(vm.part_vertices, np.diff(b))
