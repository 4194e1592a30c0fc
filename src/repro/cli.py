"""Command-line interface: reordering, dataset/cache and sweep management.

``vebo-reorder reorder`` mirrors the paper artifact's interface::

    ./VEBO -r 100 -p 384 original vebo

where ``-r`` is a vertex to track through the renumbering, ``-p`` the
partition count, ``original`` the input adjacency file and ``vebo`` the
output file; it prints the balance report the artifact's expected-result
section describes (per-partition vertex/edge counts, Delta(n), delta(n)).
For backward compatibility the subcommand may be omitted:
``vebo-reorder in.adj out.adj -p 384`` still works.

``vebo-reorder datasets`` manages the :mod:`repro.store` registry and
artifact cache::

    vebo-reorder datasets list
    vebo-reorder datasets build twitter --scale 0.5 --partitions 384
    vebo-reorder datasets clean

``vebo-reorder sweep`` drives the parallel, resumable Table III sweep
(:mod:`repro.experiments.sweep`) against a persistent results store::

    vebo-reorder sweep run --graphs twitter,livejournal --jobs 4 \\
        --out results.jsonl
    vebo-reorder sweep run --jobs 4 --out results.jsonl --resume
    vebo-reorder sweep run --backend vectorized --out results.jsonl
    vebo-reorder sweep status --out results.jsonl
    vebo-reorder sweep report --out results.jsonl

``--backend`` (or the ``REPRO_BACKEND`` environment variable) selects the
frontier-engine implementation (``vectorized``, the default, or
``parallel``, whose chunk-worker count ``REPRO_PARALLEL_WORKERS`` sets);
backends are conformance-tested bit-identical, so the choice only changes
wall-clock, never the persisted numbers.

``vebo-reorder traces`` manages the persistent execution-trace store
(:mod:`repro.store.traces`) the sweep's dedup scheduling replays from::

    vebo-reorder traces build --graphs twitter --algorithms PR,BFS
    vebo-reorder traces list
    vebo-reorder traces clean

A built trace covers one (graph, ordering, algorithm) execution identity
and prices under *every* framework personality, so a warm trace store
turns a full sweep into pure pricing — no algorithm executes at all.

``vebo-reorder sweep reprice`` is that promise as a command: given a warm
trace store, it prices the full (framework x machine) matrix —
``--machines`` selects machine personalities from the
:mod:`repro.machine.models` registry (default: all of them) — with
**zero** fresh executions, and errors out loudly on any trace miss
instead of quietly executing::

    vebo-reorder traces build --graphs twitter --algorithms PR,BFS
    vebo-reorder sweep reprice --graphs twitter --algorithms PR,BFS \\
        --machines paper-xeon,laptop,big-numa --out repriced.jsonl
    vebo-reorder sweep report --out repriced.jsonl

``vebo-reorder machines list`` shows the registered machine models.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro import obs
from repro.errors import ReproError
from repro.obs.logsetup import configure_logging, get_logger

__all__ = ["main", "build_parser"]

#: Diagnostic/progress output goes through this logger (INFO -> stdout,
#: WARNING+ -> stderr; ``-q`` silences INFO, ``-v`` adds DEBUG), so it is
#: uniformly filterable.  Primary *data* output — tables, listings,
#: reports — stays on bare ``print``: it is the command's product, not
#: commentary, and must survive ``-q``.
_log = get_logger("cli")

_CACHE_EPILOG = """\
cache configuration:
  --cache-dir PATH      artifact cache root for this invocation
                        (overrides REPRO_CACHE_DIR)
  --no-cache            bypass the artifact cache (build from scratch,
                        do not persist)

environment variables:
  REPRO_CACHE_DIR       root directory of the on-disk artifact cache
                        (default: $XDG_CACHE_HOME/repro-vebo or
                        ~/.cache/repro-vebo)
  REPRO_CACHE_OFF       any non-empty value disables the artifact cache
                        everywhere, as if --no-cache were always given
  REPRO_MMAP            any non-empty value memory-maps cached arrays on
                        load (read-only, zero-copy) instead of reading
                        them eagerly; equivalent to --mmap

Cached artifacts are content-addressed bundles under
<cache root>/{graph,ordering,trace}/ — one directory per artifact
holding a manifest plus one mmap-friendly .npy file per array.
Single-file .npz bundles and partition/ and edgeorder/ directories from
older releases are neither read nor cleaned (delete them by hand to
reclaim their space; `datasets list` and `datasets clean` report the
latter's bundles); `datasets clean` removes only entries the cache
itself wrote (verified by an embedded marker), never foreign files.
"""


def _resolve_cli_cache(args):
    """Map --cache-dir/--no-cache onto a cache handle (or None)."""
    from repro.store import ArtifactCache, resolve_cache

    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir:
        return ArtifactCache(cache_dir)
    return resolve_cache(None)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="artifact cache root (overrides REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the artifact cache entirely",
    )


def _leaf(sub, name: str, handler, help: str, **defaults) -> argparse.ArgumentParser:
    """Declare one subcommand: its parser, its help and the handler
    ``main`` calls (plus any fixed ``defaults`` the handler reads)."""
    parser = sub.add_parser(name, help=help)
    parser.set_defaults(handler=handler, **defaults)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vebo-reorder",
        description="Reorder graphs with VEBO and manage the dataset/artifact store.",
        epilog=_CACHE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "-v", "--verbose", dest="log_verbose", action="count", default=0,
        help="enable debug diagnostics (before the subcommand)",
    )
    parser.add_argument(
        "-q", "--quiet", dest="log_quiet", action="store_true",
        help="suppress informational output (before the subcommand)",
    )
    parser.add_argument(
        "--obs", dest="obs_on", action="store_true",
        help="enable observability for this invocation (equivalent to "
        "REPRO_OBS=1): spans/events/metrics are appended to "
        "<cache root>/obs/ for `obs report` and `obs export`",
    )
    parser.add_argument(
        "--mmap", dest="mmap_on", action="store_true",
        help="memory-map cached arrays on load instead of reading them "
        "eagerly (equivalent to REPRO_MMAP=1): zero-copy, read-only, "
        "bit-identical results",
    )
    parser.set_defaults(handler=None)
    sub = parser.add_subparsers(dest="command")

    reorder = _leaf(
        sub, "reorder", _cmd_reorder,
        "reorder a graph file and report partition balance "
        "(the paper artifact's interface)",
    )
    _add_reorder_args(reorder)

    datasets = sub.add_parser(
        "datasets",
        help="list registered datasets, build them into the cache, "
        "or clean the cache",
        epilog=_CACHE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    dsub = datasets.add_subparsers(dest="datasets_command", required=True)

    _leaf(dsub, "list", _cmd_datasets_list, "show registered datasets and cache status")

    dbuild = _leaf(
        dsub, "build", _cmd_datasets_build,
        "build dataset graphs (and optionally their VEBO orderings) "
        "into the artifact cache",
    )
    dbuild.add_argument(
        "names", nargs="*", metavar="NAME",
        help="dataset names (default: every registered dataset)",
    )
    dbuild.add_argument("--scale", type=float, default=1.0, help="generator size multiplier")
    dbuild.add_argument("--seed", type=int, default=12345, help="generator seed")
    dbuild.add_argument(
        "-p", "--partitions", type=int, default=None, metavar="P",
        help="also build and cache the VEBO ordering a sweep at P "
        "partitions reads",
    )
    dbuild.add_argument(
        "--refresh", action="store_true", help="rebuild even on a cache hit"
    )

    dclean = _leaf(dsub, "clean", _cmd_clean, "delete cache-owned artifact bundles")
    dclean.add_argument(
        "--kind", default=None,
        choices=("graph", "ordering", "trace"),
        help="restrict to one artifact family (default: all)",
    )

    traces = sub.add_parser(
        "traces",
        help="manage the persistent execution-trace store (list, "
        "pre-build for a sweep matrix, clean)",
        epilog=_CACHE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    tsub = traces.add_subparsers(dest="traces_command", required=True)

    _leaf(tsub, "list", _cmd_traces_list, "show stored execution traces")

    tbuild = _leaf(
        tsub, "build", _cmd_traces_build,
        "execute a (graphs x orderings x algorithms) matrix once per "
        "identity and persist every trace — a later sweep replays them "
        "under any framework without executing anything",
    )
    _add_matrix_flags(tbuild, frameworks=False)
    tbuild.add_argument(
        "--partitions", type=int, default=None, metavar="P",
        help="accounting partition count (default: the shared framework "
        "granularity, 384)",
    )
    tbuild.add_argument(
        "--backend", default=None, metavar="NAME",
        help="engine backend executing trace misses (vectorized, parallel; "
        "default: $REPRO_BACKEND, else vectorized) — traces are "
        "backend-independent, this only changes build wall-clock "
        "(REPRO_PARALLEL_WORKERS sizes the parallel backend)",
    )
    tbuild.add_argument(
        "--refresh", action="store_true", help="re-execute even on a stored trace"
    )

    _leaf(tsub, "clean", _cmd_clean, "delete stored execution traces", kind="trace")

    machines = sub.add_parser(
        "machines",
        help="machine personalities: registry, calibration, JSON files",
    )
    msub = machines.add_subparsers(dest="machines_command", required=True)
    _leaf(
        msub, "list", _cmd_machines_list,
        "show the machine-model registry (built-in + user files)",
    )

    mcal = _leaf(
        msub, "calibrate", _cmd_machines_calibrate,
        "fit cost-model knobs (time scale, miss penalty, remote "
        "factor) from the measurement store's recorded chunk timings",
    )
    mcal.add_argument(
        "--name", default="calibrated", metavar="NAME",
        help="name of the fitted machine personality (default: calibrated)",
    )
    mcal.add_argument(
        "--description", default="", metavar="TEXT",
        help="description of the fitted personality (default: generated)",
    )
    mcal.add_argument(
        "--save", default=None, metavar="FILE",
        help="also write the fitted machine as a JSON personality file",
    )
    mcal.add_argument(
        "--add", action="store_true",
        help="also install the fitted machine into the user machines "
        "directory (<cache root>/machines/), so later invocations can "
        "price on it by name",
    )

    madd = _leaf(
        msub, "add", _cmd_machines_add,
        "install a machine JSON file into the user machines "
        "directory; later invocations register it automatically",
    )
    madd.add_argument("file", help="machine personality JSON file")

    msave = _leaf(
        msub, "save", _cmd_machines_save,
        "write a registered machine to a JSON personality file",
    )
    msave.add_argument("machine", help="registered machine name")
    msave.add_argument("file", help="output JSON file")

    mload = _leaf(
        msub, "load", _cmd_machines_load,
        "validate a machine JSON file and show its knobs",
    )
    mload.add_argument("file", help="machine personality JSON file")

    sweep = sub.add_parser(
        "sweep",
        help="run/inspect the parallel resumable Table III sweep",
        epilog=_CACHE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ssub = sweep.add_subparsers(dest="sweep_command", required=True)

    srun = _leaf(
        ssub, "run", _cmd_sweep_run,
        "execute the sweep matrix (process pool + results store)",
        replay_only=False,
    )
    _add_matrix_flags(srun)
    srun.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = run inline, no pool; default: 1)",
    )
    srun.add_argument(
        "--resume", action="store_true",
        help="skip cells already present in the results store instead of "
        "refusing to reuse a non-empty --out file",
    )
    srun.add_argument(
        "--backend", default=None, metavar="NAME",
        help="engine backend executing every cell (vectorized, parallel — "
        "REPRO_PARALLEL_WORKERS sizes the parallel backend; default: "
        "$REPRO_BACKEND, else vectorized) — results are bit-identical "
        "across backends, only wall-clock differs",
    )
    srun.add_argument(
        "--progress", action="store_true",
        help="periodic progress heartbeat (cells done/total, executed vs "
        "replayed, cells/sec, ETA) even when stderr is not a TTY",
    )
    _add_sweep_out_flag(srun)

    sstatus = _leaf(
        ssub, "status", _cmd_sweep_status,
        "show completed/pending cells of a sweep matrix",
    )
    _add_matrix_flags(sstatus)
    _add_sweep_out_flag(sstatus)

    sreprice = _leaf(
        ssub, "reprice", _cmd_sweep_run,
        "price the (framework x machine) matrix from the warm trace "
        "store with ZERO executions (errors on any trace miss)",
        replay_only=True, resume=True,
    )
    _add_matrix_flags(sreprice)
    sreprice.add_argument(
        "-j", "--jobs", type=int, default=1, metavar="N",
        help="worker processes (default: 1; pricing is cheap, 1 is fine)",
    )
    _add_sweep_out_flag(sreprice)

    sreport = _leaf(
        ssub, "report", _cmd_sweep_report,
        "rebuild the runtime matrix + headline speedups from disk",
    )
    _add_sweep_out_flag(sreport)
    sreport.add_argument(
        "--baseline", default="original", metavar="ORDERING",
        help="speedup baseline ordering (default: original)",
    )
    sreport.add_argument(
        "--target", default="vebo", metavar="ORDERING",
        help="speedup target ordering (default: vebo)",
    )

    obs_cmd = sub.add_parser(
        "obs",
        help="observability: summarize, export, validate or clear the "
        "event log recorded under REPRO_OBS=1 / --obs",
    )
    osub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    oreport = _leaf(
        osub, "report", _cmd_obs_report,
        "summary tables: measured band load-imbalance per "
        "(algorithm, graph, ordering), cache hit rates, dedup ratio, "
        "slowest spans",
    )
    oreport.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="how many slowest spans to show (default: 10)",
    )

    oexport = _leaf(
        osub, "export", _cmd_obs_export,
        "export the event log as a Chrome trace-event timeline "
        "(open in Perfetto or about://tracing)",
    )
    oexport.add_argument(
        "--chrome", required=True, metavar="FILE",
        help="output path for the trace-event JSON",
    )

    _leaf(osub, "validate", _cmd_obs_validate, "check every event line against the schema")
    _leaf(osub, "clean", _cmd_obs_clean, "delete recorded event files")
    for leaf in osub.choices.values():
        _add_obs_dir_flag(leaf)

    # Every subcommand but `reorder` takes the cache flags, last.
    for group in (dsub, tsub, msub, ssub, osub):
        for leaf in group.choices.values():
            _add_cache_flags(leaf)
    return parser


def _add_obs_dir_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dir", default=None, metavar="PATH",
        help="event-log directory (default: REPRO_OBS_DIR, else "
        "<cache root>/obs)",
    )


def _add_sweep_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="results store (JSONL); default: <cache root>/results/sweep.jsonl",
    )


def _add_matrix_flags(parser: argparse.ArgumentParser, frameworks: bool = True) -> None:
    parser.add_argument(
        "--graphs", default=None, metavar="A,B,...",
        help="dataset names (default: every registered dataset)",
    )
    parser.add_argument(
        "--algorithms", default="PR,BFS", metavar="A,B,...",
        help="algorithm names (default: PR,BFS)",
    )
    if frameworks:
        parser.add_argument(
            "--frameworks", default="ligra,polymer,graphgrind", metavar="A,B,...",
            help="framework personalities (default: all three)",
        )
        parser.add_argument(
            "--machines", default=None, metavar="A,B,...",
            help="machine models to price on (see `machines list`; "
            "default: paper-xeon — `sweep reprice` defaults to every "
            "registered machine)",
        )
    parser.add_argument(
        "--orderings", default="original,vebo", metavar="A,B,...",
        help="vertex orderings (default: original,vebo)",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="generator size multiplier")
    parser.add_argument("--seed", type=int, default=12345, help="generator seed")
    parser.add_argument(
        "--iterations", type=int, default=5, metavar="N",
        help="iteration cap for fixed-iteration algorithms PR/BP (default: 5)",
    )


def _add_reorder_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="input graph in Ligra adjacency format")
    parser.add_argument("output", help="path for the reordered graph")
    parser.add_argument(
        "-p", "--partitions", type=int, default=384, help="number of partitions"
    )
    parser.add_argument(
        "-r", "--track", type=int, default=None,
        help="vertex id to track through the renumbering",
    )
    parser.add_argument(
        "-a", "--algorithm", default="vebo",
        help="ordering algorithm (vebo, rcm, gorder, degree-sort, random, ...)",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the balance report"
    )


def _cmd_reorder(args) -> int:
    from repro.experiments import prepare
    from repro.graph.io import read_adjacency_graph, write_adjacency_graph
    from repro.partition.stats import compute_stats

    t0 = time.perf_counter()
    graph = read_adjacency_graph(args.input)
    load_s = time.perf_counter() - t0

    prep = prepare(graph, args.algorithm, args.partitions)
    write_adjacency_graph(prep.graph, args.output)

    if not args.quiet:
        stats = compute_stats(prep.graph, prep.boundaries)
        print(f"graph: {args.input}  n={graph.num_vertices} m={graph.num_edges}")
        print(f"load time:     {load_s:.3f}s")
        print(f"reorder time:  {prep.ordering_seconds:.3f}s ({args.algorithm})")
        print(f"partitions:    {args.partitions}")
        print(f"edge balance   Delta(n) = {stats.edge_imbalance()}")
        print(f"vertex balance delta(n) = {stats.vertex_imbalance()}")
        if args.track is not None:
            if 0 <= args.track < graph.num_vertices:
                print(
                    f"vertex {args.track} -> new id {int(prep.perm[args.track])}"
                )
            else:
                _log.error(f"vertex {args.track} out of range")
                return 2
    return 0


def _cmd_datasets_list(args) -> int:
    from repro import store

    cache = _resolve_cli_cache(args)
    cached_keys: set[tuple[str, str]] = set()
    if cache is not None:
        cached_keys = {(kind, key) for kind, key, _ in cache.entries()}
        print(f"cache root: {cache.root}  ({len(cached_keys)} artifact(s))")
        _print_retired(cache)
    else:
        print("cache: disabled")
    # "cached" refers to the default-parameter build of each dataset.
    # File-backed specs show "?": their cache key embeds a digest of the
    # source file, and hashing a multi-gigabyte download just to render a
    # listing would be absurd.
    print(f"{'name':<14} {'source':<10} {'cached':<7} description")
    for name in store.available_datasets():
        spec = store.get_dataset(name)
        if spec.source == "file":
            hit = "?"
        else:
            try:
                key = store.artifact_key("graph", spec.cache_payload())
                hit = "yes" if ("graph", key) in cached_keys else "no"
            except ReproError:
                hit = "?"
        print(f"{name:<14} {spec.source:<10} {hit:<7} {spec.description}")
    return 0


def _print_retired(cache) -> None:
    """Name the bundles of retired kinds under ``cache``'s root, if any."""
    retired = cache.retired_entries()
    if retired:
        dirs = ", ".join(sorted({f"{kind}/" for kind, _, _ in retired}))
        size = sum(size for _, _, size in retired)
        print(f"retired kinds: {len(retired)} bundle(s), {size} bytes in {dirs}; "
              f"nothing reads or cleans them, delete them by hand")


def _cmd_datasets_build(args) -> int:
    from repro import store
    from repro.experiments import prepare
    from repro.partition.stats import compute_stats

    cache = _resolve_cli_cache(args)
    cache_arg = cache if cache is not None else False
    names = args.names or store.available_datasets()
    status = 0
    for name in names:
        t0 = time.perf_counter()
        try:
            graph = store.load_graph(
                name, cache=cache_arg, refresh=args.refresh,
                **_dataset_params(args, name),
            )
        except ReproError as exc:
            _log.error(f"{name}: {exc}")
            status = 1
            continue
        graph_s = time.perf_counter() - t0
        line = (
            f"{name}: n={graph.num_vertices:,} m={graph.num_edges:,} "
            f"graph {graph_s:.3f}s"
        )
        if args.partitions:
            t1 = time.perf_counter()
            prep = prepare(
                graph, "vebo", args.partitions, cache=cache_arg, refresh=args.refresh
            )
            stats = compute_stats(prep.graph, prep.boundaries)
            line += (
                f"  vebo-partition(P={args.partitions}) "
                f"{time.perf_counter() - t1:.3f}s "
                f"Delta={stats.edge_imbalance()} delta={stats.vertex_imbalance()}"
            )
        _log.info(line)
    return status


def _dataset_params(args, name: str) -> dict:
    """The ``--scale``/``--seed`` values dataset ``name`` accepts, so
    custom datasets registered with other parameter names still build."""
    from repro import store

    defaults = store.get_dataset(name).defaults
    return {
        k: v for k, v in (("scale", args.scale), ("seed", args.seed)) if k in defaults
    }


def _matrix_from_args(args):
    """Parse the shared matrix flags into ``(graphs, algorithms,
    orderings, params_by_graph, algo_kwargs)``.

    This is the single source of truth for how CLI flags become
    execution inputs — the per-graph params filter (:func:`_dataset_params`,
    shared with ``datasets build``) and the fixed-iteration kwargs
    convention (PR/BP take ``--iterations``).  Both ``sweep`` and
    ``traces build`` go through it, so the trace keys a build writes are
    exactly the keys a later sweep looks up.
    """
    from repro import store

    graphs = (
        [g for g in args.graphs.split(",") if g]
        if args.graphs
        else store.available_datasets()
    )
    algorithms = [a for a in args.algorithms.split(",") if a]
    orderings = [o for o in args.orderings.split(",") if o]
    algo_kwargs = {
        a: {"num_iterations": args.iterations}
        for a in algorithms
        if a in ("PR", "BP")
    }
    params_by_graph = {name: _dataset_params(args, name) for name in graphs}
    return graphs, algorithms, orderings, params_by_graph, algo_kwargs


def _machines_from_args(args, default: "list[str] | None" = None) -> list[str]:
    """Parse --machines; ``default`` is used when the flag was omitted
    (``None`` -> just the default paper machine)."""
    from repro.machine.models import DEFAULT_MACHINE

    raw = getattr(args, "machines", None)
    if raw:
        return [m for m in raw.split(",") if m]
    return list(default) if default is not None else [DEFAULT_MACHINE]


def _sweep_cells_from_args(args, default_machines: "list[str] | None" = None):
    """Expand the CLI matrix flags into sweep cells."""
    from repro.experiments import expand_matrix

    graphs, algorithms, orderings, params_by_graph, algo_kwargs = (
        _matrix_from_args(args)
    )
    frameworks = [f for f in args.frameworks.split(",") if f]
    machines = _machines_from_args(args, default=default_machines)
    cells = []
    for name in graphs:
        cells.extend(
            expand_matrix(
                [name], algorithms, frameworks, orderings,
                params=params_by_graph[name], algo_kwargs=algo_kwargs,
                backend=getattr(args, "backend", None),
                machines=machines,
            )
        )
    return cells


def _resolve_sweep_out(args, cache):
    from pathlib import Path

    from repro.errors import ResultsError

    if args.out:
        return Path(args.out)
    if cache is not None:
        return cache.root / "results" / "sweep.jsonl"
    raise ResultsError(
        "no results store: pass --out FILE (the cache is disabled, so there "
        "is no default location)"
    )


def _cmd_sweep_run(args) -> int:
    """`sweep run`, and `sweep reprice` (``args.replay_only``).

    Repricing prices the (framework x machine) matrix from the warm trace
    store with **zero** algorithm executions: every execution group must
    replay, and a miss aborts the whole command with a pointer at
    `traces build` instead of quietly running the algorithm.  Cells
    already in the results store are skipped (repricing is idempotent),
    so the command composes with earlier sweeps and with itself.
    """
    from repro.experiments import ResultsStore, run_cells
    from repro.machine.models import available_machines

    reprice = args.replay_only
    if reprice:
        cache = _require_cache(args, "the trace store", "sweep reprice")
    else:
        cache = _resolve_cli_cache(args)
    _register_user_machines(cache)
    out = _resolve_sweep_out(args, cache)
    store = ResultsStore(out)
    if reprice:
        machines = _machines_from_args(args, default=available_machines())
        cells = _sweep_cells_from_args(args, default_machines=machines)
        _log.info(
            f"reprice: {len(cells)} cell(s) across {len(machines)} machine "
            f"model(s) ({', '.join(machines)}) -> {out}  (jobs={args.jobs})"
        )
    else:
        existing = len(store)
        if existing and not args.resume:
            _log.error(
                f"results store {out} already holds {existing} cell(s); "
                "pass --resume to skip completed cells, or choose a fresh --out"
            )
            return 1
        cells = _sweep_cells_from_args(args)
        _log.info(f"sweep: {len(cells)} cell(s) -> {out}  (jobs={args.jobs})")
        if args.resume and existing:
            _log.info(f"resume: {existing} cell(s) already in the store")
    total = len(cells)
    counts = {"done": 0, "skipped": 0}

    # Periodic heartbeat for long sweeps, built on the obs metrics
    # registry (same counters `obs report` and flush_metrics see).  On by
    # default only when stderr is a terminal — in pipes and CI logs the
    # per-cell lines already tell the story — unless --progress insists.
    heartbeat = None
    if not reprice and (args.progress or sys.stderr.isatty()):
        heartbeat = obs.ProgressHeartbeat(
            total, emit=lambda line: print(line, file=sys.stderr, flush=True)
        )

    def progress(cell, result, skipped):
        counts["skipped" if skipped else "done"] += 1
        tag = "cached" if skipped else f"{result.seconds:.4g}s"
        n = counts["done"] + counts["skipped"]
        _log.info(f"[{n}/{total}] {cell.label()}: {tag}")
        if heartbeat is not None:
            heartbeat.tick()

    t0 = time.perf_counter()
    stats: dict = {}
    run_cells(
        cells,
        jobs=args.jobs,
        store=store,
        resume=args.resume,
        cache=cache if cache is not None else False,
        replay_only=reprice,
        progress=progress,
        stats=stats,
    )
    elapsed = time.perf_counter() - t0
    if reprice:
        _log.info(
            f"reprice complete: {counts['done']} cell(s) priced from "
            f"{stats['replayed']} stored trace(s), {counts['skipped']} already "
            f"in the store, {stats['executed']} executed fresh, {elapsed:.3f}s"
        )
        return 0
    if heartbeat is not None and total:
        print(heartbeat.render(), file=sys.stderr, flush=True)
    _log.info(
        f"sweep complete: {counts['done']} computed, {counts['skipped']} "
        f"resumed from store, {elapsed:.3f}s"
    )
    if stats.get("groups"):
        _log.info(
            f"dedup: {stats['computed']} cell(s) priced from "
            f"{stats['groups']} execution group(s) "
            f"({stats['computed'] / stats['groups']:.1f} cells/execution); "
            f"trace store: {stats['replayed']} replayed, "
            f"{stats['executed']} executed fresh"
        )
    return 0


def _require_cache(args, store: str, command: str):
    """The invocation's artifact cache, for a command that needs ``store``
    (which lives in it); a :class:`ReproError` when caching is disabled."""
    cache = _resolve_cli_cache(args)
    if cache is None:
        raise ReproError(
            f"{store} lives in the artifact cache; `{command}` cannot run "
            "with caching disabled"
        )
    return cache


def _register_user_machines(cache) -> int:
    """Register the personalities under <cache root>/machines/; returns
    how many were newly registered (0 when the cache is disabled)."""
    from repro.machine.models import load_user_machines

    if cache is None:
        return 0
    return len(load_user_machines(cache.root))


def _cmd_machines_list(args) -> int:
    from repro.machine.models import BUILTIN_MACHINES, DEFAULT_MACHINE, MACHINES

    _register_user_machines(_resolve_cli_cache(args))
    print(f"{'name':<14} {'sockets':>7} {'thr/skt':>7} {'threads':>7} "
          f"{'miss pen':>8} {'remote':>6} {'scale':>5}  description")
    for name, m in MACHINES.items():
        tag = name
        if name == DEFAULT_MACHINE:
            tag += "*"
        elif name not in BUILTIN_MACHINES:
            tag += "+"
        print(
            f"{tag:<14} {m.num_sockets:>7} {m.threads_per_socket:>7} "
            f"{m.num_threads:>7} {m.miss_penalty:>8.1f} {m.remote_factor:>6.1f} "
            f"{m.time_scale:>5.2f}  {m.description}"
        )
    print("(* default: derives the paper-calibrated coefficients bit for bit; "
          "+ user machine file)")
    return 0


def _cmd_machines_calibrate(args) -> int:
    from repro.machine.calibrate import CalibrationSample, fit_machine
    from repro.machine.models import MACHINES, save_machine, user_machines_dir
    from repro.metrics import calibration_report
    from repro.store.measurements import MeasurementStore

    cache = _require_cache(args, "the measurement store", "machines calibrate")
    _register_user_machines(cache)
    mstore = MeasurementStore.in_cache(cache)
    records = mstore.samples()
    if not records:
        _log.error(
            f"measurement store at {mstore.path} holds 0 sample(s); "
            "per-chunk timings are recorded only by the parallel engine "
            "backend during trace-store-enabled runs — run e.g. "
            "`traces build --backend parallel` or `sweep run --backend "
            "parallel` with REPRO_PARALLEL_WORKERS >= 2 (and "
            "REPRO_PARALLEL_MIN_WORK low enough for your graph sizes), "
            "then calibrate again"
        )
        return 1
    if args.add and args.name in MACHINES:
        _log.error(
            f"machine {args.name!r} is already registered; pick a "
            "different --name to --add the fitted personality"
        )
        return 1
    samples = [CalibrationSample.from_record(r) for r in records]
    result = fit_machine(
        samples, name=args.name, description=args.description
    )
    print(calibration_report(result))
    if args.save:
        path = save_machine(result.machine, args.save)
        _log.info(f"saved: {path}")
    if args.add:
        path = save_machine(
            result.machine,
            user_machines_dir(cache.root) / f"{result.machine.name}.json",
        )
        _log.info(f"installed: {path} (auto-registered by later invocations)")
    return 0


def _cmd_machines_add(args) -> int:
    from repro.machine.models import (
        MACHINES, load_machine, save_machine, user_machines_dir,
    )

    cache = _require_cache(args, "the user machines directory", "machines add")
    _register_user_machines(cache)
    model = load_machine(args.file)
    existing = MACHINES.get(model.name)
    if existing is not None and existing != model:
        _log.error(
            f"machine {model.name!r} is already registered with "
            "different parameters; rename the machine in the file"
        )
        return 1
    path = save_machine(model, user_machines_dir(cache.root) / f"{model.name}.json")
    _log.info(f"installed: {model.name!r} -> {path}")
    return 0


def _cmd_machines_save(args) -> int:
    from repro.machine.models import get_machine, save_machine

    _register_user_machines(_resolve_cli_cache(args))
    path = save_machine(get_machine(args.machine), args.file)
    _log.info(f"saved: {args.machine!r} -> {path}")
    return 0


def _cmd_machines_load(args) -> int:
    from repro.machine.models import load_machine

    m = load_machine(args.file)
    print(
        f"{m.name}: {m.num_sockets} socket(s) x {m.threads_per_socket} "
        f"thread(s), miss_penalty={m.miss_penalty:.4g}, "
        f"remote_factor={m.remote_factor:.4g}, time_scale={m.time_scale:.4g}"
    )
    if m.description:
        print(f"  {m.description}")
    print("(valid personality file; `machines add` installs it permanently)")
    return 0


def _cmd_sweep_status(args) -> int:
    from repro.experiments import ResultsStore, group_cells

    cache = _resolve_cli_cache(args)
    out = _resolve_sweep_out(args, cache)
    results_store = ResultsStore(out)
    stored = results_store.keys()
    cells = _sweep_cells_from_args(args)
    per_graph: dict[str, list[int]] = {}
    completed = 0
    for cell in cells:
        done = cell.key() in stored
        completed += done
        bucket = per_graph.setdefault(cell.dataset, [0, 0])
        bucket[0] += done
        bucket[1] += 1
    print(f"results store: {out}  ({len(stored)} record(s))")
    print(f"matrix: {len(cells)} cell(s); completed {completed}, "
          f"pending {len(cells) - completed}")
    for name, (done, total) in per_graph.items():
        print(f"  {name:<14} {done}/{total}")
    groups = group_cells(cells)
    if groups:
        print(
            f"dedup: {len(cells)} cell(s) in {len(groups)} execution "
            f"group(s) ({len(cells) / len(groups):.1f} cells/execution)"
        )
    provenance = results_store.dedup_stats()
    tagged = provenance["replayed"] + provenance["fresh"]
    if tagged:
        line = (
            f"trace store: {provenance['replayed']} hit(s) (cells priced "
            f"from a stored trace), {provenance['fresh']} miss(es) "
            f"(executed fresh)"
        )
        if provenance["untagged"]:
            line += f", {provenance['untagged']} untagged"
        print(line)
    return 0


def _cmd_sweep_report(args) -> int:
    from repro.errors import ResultsError
    from repro.experiments import ResultsStore
    from repro.metrics import render_report
    from repro.ordering import ORDERING_REGISTRY

    for name in (args.baseline, args.target):
        if name not in ORDERING_REGISTRY:
            raise ResultsError(
                f"unknown ordering {name!r}; registered: "
                f"{', '.join(sorted(ORDERING_REGISTRY))}"
            )
    cache = _resolve_cli_cache(args)
    out = _resolve_sweep_out(args, cache)
    entries = ResultsStore(out).entries()
    if not entries:
        # A missing, empty or just-created store is a normal state (e.g.
        # `sweep report` before the first `sweep run`), not an error: say
        # so plainly and exit cleanly.
        print(f"no results in {out} (run `sweep run` to populate it)")
        return 0
    # One store may accumulate sweeps over different datasets/scales whose
    # graphs share names; group by the recorded cell *identity* metadata
    # so a report never averages a scale-0.5 baseline against a scale-1.0
    # target.  Provenance keys (trace_replayed) are excluded: a replayed
    # cell is byte-identical to an executed one and must land in the same
    # group.
    groups: dict[str | None, list] = {}
    for _key, meta, result in entries:
        ident = {
            k: v for k, v in (meta or {}).items() if k != "trace_replayed"
        }
        tag = json.dumps(ident, sort_keys=True) if ident else None
        groups.setdefault(tag, []).append(result)
    print(f"results store: {out}  ({len(entries)} cell(s))")
    for tag, results in groups.items():
        print()
        if len(groups) > 1:
            print(f"-- sweep group: {tag or '(no metadata)'} --")
        print(render_report(results, baseline=args.baseline, target=args.target))
    return 0


def _cmd_traces_list(args) -> int:
    cache = _resolve_cli_cache(args)
    if cache is None:
        print("cache: disabled; no trace store")
        return 0
    entries = [(k, key, s) for k, key, s in cache.entries() if k == "trace"]
    print(f"trace store: {cache.root / 'trace'}  ({len(entries)} trace(s))")
    if not entries:
        return 0
    print(f"{'key':<14} {'graph':<16} {'ordering':<10} {'algo':<6} "
          f"{'P':>5} {'steps':>6} {'iters':>6} {'size':>10}")
    for _kind, key, size in entries:
        try:
            arrays = cache.load("trace", key)
            meta = json.loads(str(arrays["meta_json"]))
            steps = int(arrays["record_index"].shape[0])
        except (TypeError, ValueError, KeyError):
            arrays = None
        if arrays is None:
            print(f"{key[:12] + '..':<14} (unreadable bundle)")
            continue
        labels = meta.get("labels", {})
        print(
            f"{key[:12] + '..':<14} {meta.get('graph_name', '?'):<16} "
            f"{labels.get('ordering', '?'):<10} {meta.get('algorithm', '?'):<6} "
            f"{meta.get('num_partitions', 0):>5} {steps:>6} "
            f"{meta.get('iterations', 0):>6} {size:>9,}B"
        )
    return 0


def _cmd_traces_build(args) -> int:
    from repro import store
    from repro.experiments import execute, prepare
    from repro.frameworks.personality import ACCOUNTING_CHUNKS

    cache = _require_cache(args, "the trace store", "traces build")
    partitions = args.partitions or ACCOUNTING_CHUNKS
    graphs, algorithms, orderings, params_by_graph, algo_kwargs = (
        _matrix_from_args(args)
    )
    built = replayed = 0
    for name in graphs:
        graph = store.load_graph(name, cache=cache, **params_by_graph[name])
        for ordering in orderings:
            prep = prepare(graph, ordering, partitions, cache=cache)
            for algo in algorithms:
                kwargs = algo_kwargs.get(algo, {})
                t0 = time.perf_counter()
                execution = execute(
                    graph, algo, prepared=prep, num_partitions=partitions,
                    traces=cache, refresh=args.refresh,
                    backend=getattr(args, "backend", None), **kwargs,
                )
                dt = time.perf_counter() - t0
                tag = "stored" if execution.replayed else "built"
                built += not execution.replayed
                replayed += execution.replayed
                _log.info(
                    f"{name}/{ordering}/{algo}: {tag} "
                    f"({len(execution.trace.steps)} step(s), {dt:.3f}s)"
                )
    _log.info(f"traces build: {built} executed, {replayed} already stored")
    return 0


def _cmd_clean(args) -> int:
    """`datasets clean`, and `traces clean` (``--kind trace``)."""
    cache = _resolve_cli_cache(args)
    if cache is None:
        print("cache: disabled; nothing to clean")
        return 0
    removed = cache.clean(kind=args.kind)
    noun = "trace(s)" if args.command == "traces" else "artifact(s)"
    print(f"removed {len(removed)} {noun} from {cache.root}")
    _print_retired(cache)
    return 0


def _resolve_obs_dir_arg(args, required: bool = True):
    """The event-log directory an ``obs`` subcommand operates on:
    ``--dir`` > the resolved cache root's ``obs/`` > the library default
    (``REPRO_OBS_DIR``, else the default cache's ``obs/``).  With the cache
    disabled there may be none: ``None``, or a :class:`ReproError` when
    the command cannot go on without one (``required``)."""
    from pathlib import Path

    if getattr(args, "dir", None):
        return Path(args.dir)
    if not os.environ.get(obs.OBS_DIR_ENV_VAR):
        cache = _resolve_cli_cache(args)
        if cache is not None:
            return cache.root / "obs"
    root = obs.resolve_obs_dir()
    if root is None and required:
        raise ReproError(
            "no event-log location: pass --dir PATH (the cache is disabled, "
            "so there is no default)"
        )
    return root


def _cmd_obs_report(args) -> int:
    from repro.obs.report import render_obs_report

    root = _resolve_obs_dir_arg(args)
    _log.debug(f"event log: {root}")
    print(render_obs_report(root, top=args.top))
    return 0


def _cmd_obs_export(args) -> int:
    from repro.obs.export import export_chrome

    root = _resolve_obs_dir_arg(args)
    count = export_chrome(args.chrome, root)
    _log.info(
        f"wrote {count} trace event(s) -> {args.chrome} "
        "(open at https://ui.perfetto.dev or about://tracing)"
    )
    return 0


def _cmd_obs_validate(args) -> int:
    from repro.obs.schema import validate_events

    root = _resolve_obs_dir_arg(args, required=False)
    events = obs.read_events(root) if root is not None else []
    if not events:
        print(f"no events under {root} (run with REPRO_OBS=1 or --obs)")
        return 0
    problems = validate_events(events)
    if problems:
        for problem in problems[:50]:
            _log.error(problem)
        if len(problems) > 50:
            _log.error(f"... and {len(problems) - 50} more problem(s)")
        return 1
    print(f"{len(events)} event(s) under {root}: schema v{obs.EVENT_VERSION} valid")
    return 0


def _cmd_obs_clean(args) -> int:
    root = _resolve_obs_dir_arg(args, required=False)
    if root is None or not root.is_dir():
        print("no event log to clean")
        return 0
    removed = 0
    for path in sorted(root.glob("events-*.jsonl")):
        path.unlink(missing_ok=True)
        removed += 1
    print(f"removed {removed} event file(s) from {root}")
    return 0


_SUBCOMMANDS = ("reorder", "datasets", "sweep", "traces", "machines", "obs")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Legacy shim: `vebo-reorder in.adj out.adj [-p N ...]` (no subcommand)
    # keeps working exactly as before the store was introduced.
    head = next((a for a in argv if not a.startswith("-")), None)
    if head is not None and head not in _SUBCOMMANDS:
        argv.insert(0, "reorder")
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(
        verbose=getattr(args, "log_verbose", 0),
        quiet=getattr(args, "log_quiet", False),
    )
    if args.handler is None:
        parser.print_help()
        return 2
    # The global flags export environment variables (rather than some
    # in-process flag) so sweep pool workers inherit them, and so do the
    # secondary consumers: the measurement store, and the obs sink, which
    # would otherwise drop an event log under the default cache root that
    # --no-cache (the per-invocation REPRO_CACHE_OFF) promised not to
    # write to, or that --cache-dir redirected away from.  Each is
    # restored afterwards so in-process callers (tests, notebooks) see no
    # leak.
    no_cache = getattr(args, "no_cache", False)
    cache_dir = getattr(args, "cache_dir", None)
    exported = []
    for var, value in (
        (obs.OBS_ENV_VAR, args.obs_on and "1"),
        ("REPRO_CACHE_OFF", no_cache and "1"),
        ("REPRO_MMAP", args.mmap_on and "1"),
        (obs.OBS_DIR_ENV_VAR,
         cache_dir and not no_cache and os.path.join(cache_dir, "obs")),
    ):
        if value and not os.environ.get(var):
            os.environ[var] = value
            exported.append(var)
    try:
        return args.handler(args)
    except ReproError as exc:
        _log.error(str(exc))
        return 1
    except BrokenPipeError:
        # stdout was closed early (e.g. piped into `head`); not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    finally:
        for var in exported:
            os.environ.pop(var, None)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
