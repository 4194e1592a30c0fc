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
:mod:`repro.store.cache`).  Repeated records (e.g. the identical
dense steps of an iterative algorithm) are stored **once**: the bundle
holds a table of unique records (deduplicated by
:func:`~repro.frameworks.trace.record_fingerprint`, i.e. bitwise) plus a
step -> record index, and unpacking re-shares the objects — so a replayed
trace prices as fast as a live vectorized trace (pricing memoizes on
record identity).  Scalars are stored bit-exactly: the ``-1.0``
"not measured" miss sentinels, NaNs and signed zeros all survive, and
:class:`~repro.frameworks.frontier.DensityClass` members travel as the
stable small-int codes of
:data:`~repro.frameworks.trace.DENSITY_CODES`.
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
    record_fingerprint,
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


_SCALAR_FIELDS = ("active_vertices", "active_edges")
_FLOAT_FIELDS = ("src_miss", "dst_miss")
_PART_FIELDS = ("part_edges", "part_dsts", "part_srcs", "part_vertices")


def pack_trace(
    trace: WorkTrace, iterations: int, labels: dict | None = None
) -> dict[str, np.ndarray]:
    """Encode a trace (plus replay metadata) as a flat array bundle.

    Per-partition arrays must be ``int64[P]`` with ``P ==
    trace.num_partitions`` — the engines' invariant; anything else cannot
    be stacked losslessly and raises :class:`CacheError`.
    """
    p = int(trace.num_partitions)
    unique: list[IterationRecord] = []
    index_of: dict[bytes, int] = {}
    index = np.empty(len(trace.records), dtype=np.int64)
    for i, rec in enumerate(trace.records):
        for name in _PART_FIELDS:
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
        fp = record_fingerprint(rec)
        at = index_of.get(fp)
        if at is None:
            at = index_of[fp] = len(unique)
            unique.append(rec)
        index[i] = at
    r = len(unique)
    arrays: dict[str, np.ndarray] = {
        "record_index": index,
        "kind": np.array([rec.kind for rec in unique]),
        "direction": np.array([rec.direction for rec in unique]),
        "density": np.array(
            [DENSITY_CODES[rec.density] for rec in unique], dtype=np.int8
        ),
    }
    for name in _SCALAR_FIELDS:
        arrays[name] = np.array(
            [int(getattr(rec, name)) for rec in unique], dtype=np.int64
        )
    for name in _FLOAT_FIELDS:
        arrays[name] = np.array(
            [getattr(rec, name) for rec in unique], dtype=np.float64
        )
    for name in _PART_FIELDS:
        stacked = (
            np.stack([getattr(rec, name) for rec in unique])
            if r
            else np.empty((0, p), dtype=np.int64)
        )
        arrays[name] = stacked
    # ``trace.meta`` (the measurement side channel, e.g. the parallel
    # backend's per-chunk wall-clock) is deliberately NOT serialized: a
    # replayed trace must be bit-identical to a fresh one, and wall-clock
    # never is.  Durable measurements flow through the measurement store
    # (:mod:`repro.store.measurements`), which the runner writes at
    # record time — before the meta channel is lost to this round trip.
    arrays["meta_json"] = np.array(
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
    return arrays


def unpack_trace(arrays: dict) -> StoredTrace:
    """Invert :func:`pack_trace`, re-sharing deduplicated records.

    Any malformation — a missing array, unparsable meta, an unknown
    density code, an out-of-range record index — raises
    :class:`CacheError`, which :func:`load_trace` treats as a miss.
    """
    try:
        meta = json.loads(str(arrays["meta_json"]))
        index = np.asarray(arrays["record_index"])
        kind = arrays["kind"]
        direction = arrays["direction"]
        density = arrays["density"]
        scalars = {name: arrays[name] for name in _SCALAR_FIELDS + _FLOAT_FIELDS}
        parts = {name: arrays[name] for name in _PART_FIELDS}
        p = int(meta["num_partitions"])
        unique: list[IterationRecord] = []
        for i in range(int(kind.shape[0])):
            code = int(density[i])
            if code not in DENSITY_FROM_CODE:
                raise CacheError(f"unknown density code {code}")
            unique.append(
                IterationRecord(
                    kind=str(kind[i]),
                    direction=str(direction[i]),
                    density=DENSITY_FROM_CODE[code],
                    active_vertices=int(scalars["active_vertices"][i]),
                    active_edges=int(scalars["active_edges"][i]),
                    part_edges=np.ascontiguousarray(parts["part_edges"][i]),
                    part_dsts=np.ascontiguousarray(parts["part_dsts"][i]),
                    part_srcs=np.ascontiguousarray(parts["part_srcs"][i]),
                    part_vertices=np.ascontiguousarray(parts["part_vertices"][i]),
                    src_miss=float(scalars["src_miss"][i]),
                    dst_miss=float(scalars["dst_miss"][i]),
                )
            )
        if index.size and (
            int(index.min()) < 0 or int(index.max()) >= len(unique)
        ):
            # Negative entries would silently alias via Python indexing;
            # reject the whole bundle instead of replaying wrong records.
            raise CacheError("record_index out of range")
        trace = WorkTrace(
            algorithm=str(meta["algorithm"]),
            graph_name=str(meta["graph_name"]),
            num_partitions=p,
            records=[unique[int(i)] for i in index],
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
):
    """Persist one execution trace under ``key``; no-op when the cache is
    disabled.  Returns the bundle path, or ``None`` when disabled."""
    from repro.store.cache import resolve_cache

    resolved = resolve_cache(cache)
    if resolved is None:
        return None
    with obs.span("trace.save", cat="store", key=key):
        return resolved.store(
            "trace", key, pack_trace(trace, iterations, labels=labels)
        )


def load_trace(key: str, *, cache=None) -> StoredTrace | None:
    """Replay the trace stored under ``key``, or ``None`` on a miss (cache
    disabled, bundle absent, or bundle unreadable)."""
    from repro.store.cache import resolve_cache

    resolved = resolve_cache(cache)
    if resolved is None:
        return None
    arrays = resolved.load("trace", key)
    if arrays is None:
        obs.event("trace.load", cat="store", key=key, hit=False)
        return None
    try:
        stored = unpack_trace(arrays)
    except CacheError:
        obs.event("trace.load", cat="store", key=key, hit=False)
        return None
    obs.event("trace.load", cat="store", key=key, hit=True)
    return stored
