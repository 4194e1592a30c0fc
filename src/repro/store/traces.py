"""Persistent execution-trace store: lossless ``WorkTrace`` bundles.

The runtime model prices one *execution* (what an algorithm did, recorded
as a :class:`~repro.frameworks.trace.WorkTrace`) under several framework
personalities.  All three personalities account work at the same
384-chunk granularity, so the trace of one (graph, ordering, algorithm)
cell is *identical* under every framework — and once a trace is on disk,
pricing a cell needs no algorithm execution at all.  This module makes
traces first-class artifacts of the content-addressed cache
(:mod:`repro.store.cache`, kind ``"trace"``).

Key composition
---------------
A trace is identified by its *execution inputs* and nothing else::

    version | graph content hash | algorithm + algo_kwargs | ordering | P

The graph content hash covers the dataset and its build parameters (the
registry resolves ``(dataset, params)`` to exact CSR arrays), so the key
scheme is the sweep's cell-key scheme minus the framework.  The framework
and the engine backend are deliberately **excluded**: personalities only
*price* traces, and backends are conformance-tested bit-identical, so
neither changes what the algorithm did.  Anything that does change the
execution — the graph, the ordering, the partition count, an algorithm
kwarg (iteration count, BFS source), or :data:`TRACE_KEY_VERSION` when
the accounting semantics move — changes the key and invalidates the
trace.

Bundle layout
-------------
One bundle directory per trace (format v2, like every artifact kind of
:mod:`repro.store.cache`): a manifest plus five members.  The bundle
holds what the :class:`~repro.frameworks.trace.WorkTrace` holds: a table
of its R distinct rows plus its step -> row index.  A record an engine
repeats (e.g. the identical dense steps of an iterative algorithm, one
memoized object) is therefore stored **once**.

=================  ===================  ==================================
member             dtype, shape         holds
=================  ===================  ==================================
``record_index``   int64 [S]            the row of each step
``ints``           int64 [R, 5]         kind, direction and density codes,
                                        ``active_vertices``,
                                        ``active_edges``
``miss``           float64 [R, 2]       ``src_miss``, ``dst_miss``
``parts``          int64 [4, R, P]      ``part_edges``, ``part_dsts``,
                                        ``part_srcs``, ``part_vertices``
``meta_json``      str                  algorithm, graph name, P,
                                        iterations, labels
=================  ===================  ==================================

Unpacking builds one record per stored row and takes ``record_index`` as
the trace's steps, so a replayed trace has the layout of the trace that
was saved, and pricing builds its cost matrix from the same R rows.
Scalars are stored bit-exactly: the ``-1.0`` "not
measured" miss sentinels, NaNs and signed zeros all survive.  Kinds,
directions and :class:`~repro.frameworks.frontier.DensityClass` members
travel as stable small-int codes (:data:`KIND_CODES`,
:data:`DIRECTION_CODES`, :data:`~repro.frameworks.trace.DENSITY_CODES`);
an unknown code, a member of the wrong shape, or a bundle in any other
layout fails to unpack, and :func:`load_trace` then evicts it and reports
a miss, so the next execution stores a fresh bundle in its place.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import CacheError
from repro.frameworks.trace import (
    DENSITY_CODES,
    DENSITY_FROM_CODE,
    IterationRecord,
    WorkTrace,
)

__all__ = [
    "TRACE_KEY_VERSION",
    "StoredTrace",
    "load_trace",
    "pack_trace",
    "save_trace",
    "trace_key",
    "unpack_trace",
]

#: Version component of every trace key.  The key otherwise hashes only
#: execution inputs, so a change to what the engines *record* (accounting
#: semantics, new record fields with non-default behaviour) would replay
#: stale traces forever — bump this to invalidate every stored trace.
TRACE_KEY_VERSION = 1


def trace_key(
    graph,
    algorithm: str,
    ordering: str,
    num_partitions: int,
    algo_kwargs: dict | None = None,
) -> str:
    """Content-hash key of one execution identity.

    ``graph`` is the **original** (un-reordered) graph — its content hash
    plus the ordering name determines the reordered layout, and the
    partition count determines the accounting boundaries.  ``algo_kwargs``
    are the caller-facing kwargs (iteration counts, ``source_orig``...),
    *before* the runner resolves derived arguments like boundaries or the
    translated source vertex.
    """
    from repro.store.cache import artifact_key
    from repro.store.serialization import graph_fingerprint

    return artifact_key(
        "trace",
        {
            "version": TRACE_KEY_VERSION,
            "graph_sha256": graph_fingerprint(graph),
            "algorithm": str(algorithm),
            "ordering": str(ordering),
            "num_partitions": int(num_partitions),
            "algo_kwargs": dict(algo_kwargs or {}),
        },
    )


@dataclass(frozen=True)
class StoredTrace:
    """A trace bundle's payload: the trace plus replay metadata."""

    trace: WorkTrace
    iterations: int            # AlgorithmResult.iterations of the execution
    labels: dict               # informational only (ordering, dataset, ...)


#: Stable small-int codes of the record kinds and directions, stored in
#: the ``ints`` member (append-only, like
#: :data:`~repro.frameworks.trace.DENSITY_CODES`).
KIND_CODES = {"edgemap": 0, "vertexmap": 1}
DIRECTION_CODES = {"push": 0, "pull": 1, "-": 2}
_KIND_FROM_CODE = {v: k for k, v in KIND_CODES.items()}
_DIRECTION_FROM_CODE = {v: k for k, v in DIRECTION_CODES.items()}
#: Per-partition counters, in the order of the ``parts`` member's first axis.
_PART_FIELDS = ("part_edges", "part_dsts", "part_srcs", "part_vertices")


def _code(codes: dict, value, what: str, i: int) -> int:
    code = codes.get(value)
    if code is None:
        raise CacheError(f"record {i}: {what} {value!r} has no trace code")
    return code


def _decode(values: dict, code: int, what: str):
    """The value a stored code stands for; negative or unknown codes are a
    corrupt bundle (Python indexing would silently alias a negative one)."""
    value = values.get(code)
    if value is None:
        raise CacheError(f"unknown {what} code {code}")
    return value


def pack_trace(
    trace: WorkTrace, iterations: int, labels: dict | None = None
) -> dict[str, np.ndarray]:
    """Encode a trace (plus replay metadata) as a flat array bundle.

    Per-partition arrays must be ``int64[P]`` with ``P ==
    trace.num_partitions`` — the engines' invariant — and kinds and
    directions must have a code; anything else cannot be stored
    losslessly and raises :class:`CacheError`.
    """
    p = int(trace.num_partitions)
    rows = trace.rows
    r = len(rows)
    ints = np.empty((r, 5), dtype=np.int64)
    miss = np.empty((r, 2), dtype=np.float64)
    parts = np.empty((len(_PART_FIELDS), r, p), dtype=np.int64)
    for i, rec in enumerate(rows):
        ints[i] = (
            _code(KIND_CODES, rec.kind, "kind", i),
            _code(DIRECTION_CODES, rec.direction, "direction", i),
            _code(DENSITY_CODES, rec.density, "density", i),
            int(rec.active_vertices),
            int(rec.active_edges),
        )
        miss[i] = rec.src_miss, rec.dst_miss
        for k, name in enumerate(_PART_FIELDS):
            arr = getattr(rec, name)
            if not (
                isinstance(arr, np.ndarray)
                and arr.dtype == np.int64
                and arr.shape == (p,)
            ):
                raise CacheError(
                    f"record {i}: {name} must be int64[{p}] to serialize, "
                    f"got {type(arr).__name__}"
                    + (f" {arr.dtype}{arr.shape}" if isinstance(arr, np.ndarray) else "")
                )
            parts[k, i] = arr
    # ``trace.meta`` (the measurement side channel, e.g. the parallel
    # backend's per-chunk wall-clock) is deliberately NOT serialized: a
    # replayed trace must be bit-identical to a fresh one, and wall-clock
    # never is.  Durable measurements flow through the measurement store
    # (:mod:`repro.store.measurements`), which the runner writes at
    # record time — before the meta channel is lost to this round trip.
    meta_json = np.array(
        json.dumps(
            {
                "kind": "trace",
                "algorithm": trace.algorithm,
                "graph_name": trace.graph_name,
                "num_partitions": p,
                "iterations": int(iterations),
                "labels": dict(labels or {}),
            },
            sort_keys=True,
        )
    )
    return {"record_index": np.array(trace.steps, dtype=np.int64), "ints": ints,
            "miss": miss, "parts": parts, "meta_json": meta_json}


def unpack_trace(arrays: dict) -> StoredTrace:
    """Invert :func:`pack_trace`: the stored rows become the trace's
    rows, and ``record_index`` its steps.

    Any malformation — a missing array, unparsable meta, a member of the
    wrong shape, an unknown kind, direction or density code, an
    out-of-range record index — raises :class:`CacheError`, which
    :func:`load_trace` treats as a miss.
    """
    try:
        meta = json.loads(str(arrays["meta_json"]))
        index = np.asarray(arrays["record_index"])
        ints = arrays["ints"]
        miss = arrays["miss"]
        parts = arrays["parts"]
        p = int(meta["num_partitions"])
        r = int(ints.shape[0])
        if (ints.shape != (r, 5) or miss.shape != (r, 2) or index.ndim != 1
                or parts.shape != (len(_PART_FIELDS), r, p)
                or (index.dtype, ints.dtype, miss.dtype, parts.dtype)
                != (np.int64, np.int64, np.float64, np.int64)):
            raise CacheError("trace bundle members have the wrong shape or dtype")
        rows: list[IterationRecord] = []
        for i, (kind, direction, density, active_vertices, active_edges) in enumerate(
            ints.tolist()
        ):
            rows.append(
                IterationRecord(
                    kind=_decode(_KIND_FROM_CODE, kind, "kind"),
                    direction=_decode(_DIRECTION_FROM_CODE, direction, "direction"),
                    density=_decode(DENSITY_FROM_CODE, density, "density"),
                    active_vertices=active_vertices,
                    active_edges=active_edges,
                    **{name: np.ascontiguousarray(parts[k, i])
                       for k, name in enumerate(_PART_FIELDS)},
                    src_miss=float(miss[i, 0]),
                    dst_miss=float(miss[i, 1]),
                )
            )
        if index.size and (
            int(index.min()) < 0 or int(index.max()) >= len(rows)
        ):
            # Negative entries would silently alias via Python indexing;
            # reject the whole bundle instead of replaying wrong records.
            raise CacheError("record_index out of range")
        trace = WorkTrace(
            algorithm=str(meta["algorithm"]),
            graph_name=str(meta["graph_name"]),
            num_partitions=p,
            rows=rows,
            steps=index.tolist(),
        )
        return StoredTrace(
            trace=trace,
            iterations=int(meta["iterations"]),
            labels=dict(meta.get("labels", {})),
        )
    except CacheError:
        raise
    except (KeyError, IndexError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        raise CacheError(f"trace bundle missing or corrupt field: {exc}") from exc


def save_trace(
    key: str,
    trace: WorkTrace,
    iterations: int,
    *,
    cache=None,
    labels: dict | None = None,
    refresh: bool = False,
):
    """Persist one execution trace under ``key``; no-op when the cache is
    disabled.  Returns the bundle path, or ``None`` when disabled.
    ``refresh=True`` replaces a stored bundle instead of keeping it."""
    from repro.store.cache import resolve_cache

    resolved = resolve_cache(cache)
    if resolved is None:
        return None
    with obs.span("trace.save", cat="store", key=key):
        return resolved.store(
            "trace", key, pack_trace(trace, iterations, labels=labels),
            refresh=refresh,
        )


def load_trace(key: str, *, cache=None) -> StoredTrace | None:
    """Replay the trace stored under ``key``, or ``None`` on a miss (cache
    disabled, bundle absent, or bundle unreadable).  An unreadable bundle
    is removed (:meth:`~repro.store.cache.ArtifactCache.load`), so the
    next execution stores a fresh one instead of keeping it."""
    from repro.store.cache import resolve_cache

    resolved = resolve_cache(cache)
    if resolved is None:
        return None
    stored = resolved.load("trace", key, unpack=unpack_trace)
    obs.event("trace.load", cat="store", key=key, hit=stored is not None)
    return stored
