"""Out-of-core scale tier: peak-RSS flatness and warm-latency benchmark.

Two claims from the zero-copy array lifecycle, each measured in a fresh
subprocess so ``VmHWM`` (a per-process high-water mark) is meaningful:

* **Warm mmap loads stay flat.**  Loading the same cached graph
  ``LOADS`` times under ``REPRO_MMAP=1`` keeps peak RSS near *one* graph
  footprint (only the pages a query actually touches are faulted in),
  while the eager path materializes every copy — and the query results
  are bit-identical.  The mmap peak must stay within ~1.5x the graph's
  on-disk footprint, the eager peak provably scales with the copy count.

* **The sharded build is peak-RSS-bounded.**  Building the synthetic
  ``powerlaw-ooc`` dataset shard-by-shard (two-pass streaming CSR+CSC
  construction) must peak below the pinned budget — and below the eager
  generate-everything-then-sort path, whose transient edge list and sort
  buffers it never materializes.

Warm query latency is compared on resident pages (best-of-N of a
repeated full scan), where zero-copy borrowing must cost nothing: the
mmap path must stay within 20% of the eager path.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import print_header

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: n = 262144, m = 2097152: a ~38 MB graph — big enough that array pages
#: dominate interpreter noise, small enough to build in about a second.
SCALE = 8.0
SHARDS = 32
LOADS = 4

#: Warm mmap peak must stay within ~1.5x the on-disk graph footprint
#: (the acceptance bound); the eager peak must demonstrably scale with
#: the number of loaded copies instead.
MMAP_PEAK_RATIO = 1.5
EAGER_PEAK_MIN_RATIO = 2.5

#: Pinned budget for the streaming shard-by-shard build: the final
#: arrays (filled with pair keys, sorted and reduced in place) plus one
#: shard, with headroom for allocator high-water effects.  The eager
#: path measures ~2.3x on the same workload.
BUILD_PEAK_RATIO = 2.1

#: Warm full-scan latency on resident pages: mmap within 20% of eager.
QUERY_LATENCY_RATIO = 1.2

#: Shared peak-RSS helpers for the child scripts.  An exec'd child's
#: ``VmHWM`` covers only its own life (``ru_maxrss`` would carry the
#: pytest parent's peak over the exec), but that life includes start-up.
#: So each child takes its baseline after imports (``VmRSS``, with the
#: ``VmHWM`` of that moment) and reads ``VmHWM`` again at the end: the
#: difference is the measured region's peak above the baseline only when
#: that end reading exceeds start-up's high-water mark, which
#: ``peak_above`` checks.  A child that cannot tell fails with a message.
_RSS_HELPERS = r"""
import sys

def vm(field):
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    sys.exit(f"{field} cannot be read from /proc/self/status: no peak RSS")

def baseline():
    return vm("VmRSS"), vm("VmHWM")

def peak_above(base):
    rss, startup_hwm = base
    hwm = vm("VmHWM")
    if hwm <= startup_hwm:
        sys.exit(
            f"VmHWM {hwm} B at the end does not exceed the {startup_hwm} B "
            "read at the baseline: the peak would be start-up's"
        )
    return hwm - rss
"""

_LOAD_CHILD = _RSS_HELPERS + r"""
import json, os, sys, time
mode, cache_dir, scale, loads = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4])
)
os.environ["REPRO_CACHE_DIR"] = cache_dir
os.environ.pop("REPRO_CACHE_OFF", None)
if mode == "mmap":
    os.environ["REPRO_MMAP"] = "1"
else:
    os.environ.pop("REPRO_MMAP", None)

import numpy as np
from repro import store

base = baseline()
t0 = time.perf_counter()
graphs = [store.load_graph("powerlaw-ooc", scale=scale) for _ in range(loads)]
load_s = time.perf_counter() - t0

# Query one copy: full scan of both adjacency views.  Repeated enough to
# dominate timer noise; best-of-N isolates the steady (resident) state.
def scan(g):
    acc = 0
    for _ in range(10):
        acc += int(np.asarray(g.csr.adj).sum()) + int(np.asarray(g.csc.adj).sum())
    return acc

best = float("inf")
for _ in range(5):
    t0 = time.perf_counter()
    acc = scan(graphs[0])
    best = min(best, time.perf_counter() - t0)

g = graphs[0]
footprint = sum(
    int(np.asarray(a).nbytes)
    for a in (g.csr.offsets, g.csr.adj, g.csc.offsets, g.csc.adj)
)
print(json.dumps({
    "mode": mode, "peak_minus_base": peak_above(base), "footprint": footprint,
    "load_s": load_s, "query_best_s": best, "acc": acc,
}))
"""

_BUILD_CHILD = _RSS_HELPERS + r"""
import json, os, sys, time
mode, scale, shards = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
os.environ["REPRO_CACHE_OFF"] = "1"

import numpy as np
from repro import store  # warm every lazy import before the baseline
from repro.graph import generators as gen
from repro.graph.csr import Graph
from repro.graph.datasets import (
    OOC_EDGES_PER_VERTEX, OOC_VERTICES_PER_SCALE, build_powerlaw_ooc,
)
from repro.store.chunked import build_graph_from_chunks  # noqa: F401

base = baseline()
t0 = time.perf_counter()
if mode == "streaming":
    g = build_powerlaw_ooc(scale=scale, shards=shards)
else:
    n = max(64, int(OOC_VERTICES_PER_SCALE * scale))
    total = n * OOC_EDGES_PER_VERTEX
    per, extra = divmod(total, shards)
    srcs, dsts = [], []
    for shard in range(shards):
        m = per + (1 if shard < extra else 0)
        s, d = gen.powerlaw_shard_edges(n, m, shard, seed=12345)
        srcs.append(s)
        dsts.append(d)
    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    del srcs, dsts
    g = Graph.from_edges(src, dst, n)
build_s = time.perf_counter() - t0
footprint = sum(
    int(a.nbytes)
    for a in (g.csr.offsets, g.csr.adj, g.csc.offsets, g.csc.adj)
)
print(json.dumps({
    "mode": mode, "peak_minus_base": peak_above(base), "footprint": footprint,
    "build_s": build_s,
    "digest": int(np.asarray(g.csr.adj)[:100].sum()),
}))
"""

_WARM_CHILD = r"""
import os, sys
os.environ["REPRO_CACHE_DIR"] = sys.argv[1]
os.environ.pop("REPRO_CACHE_OFF", None)
os.environ.pop("REPRO_MMAP", None)
from repro import store
store.load_graph("powerlaw-ooc", scale=float(sys.argv[2]))
"""


def _run_child(script: str, *args: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    for var in ("REPRO_MMAP", "REPRO_CACHE_OFF", "REPRO_OBS"):
        env.pop(var, None)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}


@pytest.fixture(scope="module")
def load_results(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("ooc-cache"))
    _run_child(_WARM_CHILD, cache_dir, str(SCALE))
    return {
        mode: _run_child(_LOAD_CHILD, mode, cache_dir, str(SCALE), str(LOADS))
        for mode in ("eager", "mmap")
    }


def test_warm_mmap_loads_stay_flat(load_results):
    eager, mapped = load_results["eager"], load_results["mmap"]
    fp = mapped["footprint"]
    assert fp == eager["footprint"]

    print_header(
        f"Out-of-core: {LOADS} warm loads of powerlaw-ooc "
        f"(footprint {fp / 1e6:.1f} MB)"
    )
    for r in (eager, mapped):
        print(
            f"{r['mode']:>6}: peak-above-base "
            f"{r['peak_minus_base'] / 1e6:7.1f} MB "
            f"({r['peak_minus_base'] / fp:4.2f}x footprint), "
            f"load {r['load_s'] * 1e3:6.1f} ms, "
            f"query best {r['query_best_s'] * 1e3:6.2f} ms"
        )

    # Bit-identical query results: zero-copy, not zero-fidelity.
    assert mapped["acc"] == eager["acc"]
    # The mmap path stays flat: one footprint's worth of touched pages,
    # no matter how many copies were "loaded".
    assert mapped["peak_minus_base"] <= MMAP_PEAK_RATIO * fp
    # The eager path really did materialize the copies (else the bound
    # above would be vacuous at this scale).
    assert eager["peak_minus_base"] >= EAGER_PEAK_MIN_RATIO * fp
    assert mapped["peak_minus_base"] < eager["peak_minus_base"]


def test_warm_query_latency_holds(load_results):
    eager, mapped = load_results["eager"], load_results["mmap"]
    ratio = mapped["query_best_s"] / eager["query_best_s"]
    print_header("Out-of-core: warm full-scan latency, mmap vs eager")
    print(
        f"eager {eager['query_best_s'] * 1e3:.2f} ms, "
        f"mmap {mapped['query_best_s'] * 1e3:.2f} ms "
        f"(ratio {ratio:.3f}, bound {QUERY_LATENCY_RATIO})"
    )
    # Resident mmapped pages are just memory: scanning them must cost
    # the same as scanning heap arrays (20% tolerance for timer noise).
    assert mapped["query_best_s"] <= eager["query_best_s"] * QUERY_LATENCY_RATIO


def test_streaming_build_peak_rss_bounded():
    streaming = _run_child(_BUILD_CHILD, "streaming", str(SCALE), str(SHARDS))
    eager = _run_child(_BUILD_CHILD, "eager", str(SCALE), str(SHARDS))
    fp = streaming["footprint"]
    assert fp == eager["footprint"]
    # Identical graphs out of both paths (spot-check; the bit-identity
    # proper is pinned by tests/store/test_chunked.py).
    assert streaming["digest"] == eager["digest"]

    print_header(
        f"Out-of-core: powerlaw-ooc build, {SHARDS} shards "
        f"(footprint {fp / 1e6:.1f} MB)"
    )
    for r in (streaming, eager):
        print(
            f"{r['mode']:>9}: peak-above-base "
            f"{r['peak_minus_base'] / 1e6:7.1f} MB "
            f"({r['peak_minus_base'] / fp:4.2f}x footprint), "
            f"build {r['build_s'] * 1e3:6.0f} ms"
        )

    # The pinned out-of-core budget: the shard-by-shard build never holds
    # the full edge list, so its peak hugs the final arrays.
    assert streaming["peak_minus_base"] <= BUILD_PEAK_RATIO * fp
    assert streaming["peak_minus_base"] < eager["peak_minus_base"]
