"""``repro.store`` — dataset registry + on-disk artifact cache.

The store is the warm path under every benchmark and example: graphs,
VEBO (or baseline) orderings and execution traces
(:mod:`repro.store.traces`) are deterministic functions of a dataset spec
and build parameters, so the store builds each artifact once, persists it
as a per-array ``.npy`` sidecar bundle keyed by a content hash
(:mod:`repro.store.cache`), and replays it from disk on every later
request — zero-copy via ``mmap`` when ``REPRO_MMAP=1``.  Partition cuts
are not stored on their own: :func:`repro.experiments.prepare` takes
VEBO's from its stored ordering and runs Algorithm 1's O(n) scan for
every other ordering.

Quickstart
----------
>>> from repro import store
>>> g = store.load_graph("twitter", scale=0.1)     # built, then cached
>>> g2 = store.load_graph("twitter", scale=0.1)    # loaded from disk
>>> order = store.cached_ordering(g, "vebo", num_partitions=384)

``cache=`` on every function accepts an explicit
:class:`~repro.store.cache.ArtifactCache`, ``None``/``True`` (the default
cache, honouring ``REPRO_CACHE_DIR`` / ``REPRO_CACHE_OFF``), or ``False``
(bypass).  ``refresh=True`` rebuilds and overwrites the cached entry.
"""

from __future__ import annotations

from repro import obs
from repro.graph.csr import Graph
from repro.ordering.base import OrderingResult, get_ordering
from repro.store.cache import (
    ARTIFACT_KINDS,
    BUNDLE_VERSION,
    MMAP_ENV_VAR,
    ArtifactCache,
    artifact_key,
    array_fingerprint,
    default_cache,
    default_cache_root,
    mmap_enabled,
    resolve_cache,
)
from repro.store.chunked import (
    build_graph_from_chunks,
    build_graph_from_shard_files,
    iter_edge_chunks,
    read_edge_list_chunked,
)
from repro.store.registry import (
    DATASET_REGISTRY,
    DatasetSpec,
    available_datasets,
    get_dataset,
    register_dataset,
    register_file_dataset,
    register_sharded_dataset,
)
from repro.store import serialization as ser
from repro.store.measurements import (
    MEASUREMENT_VERSION,
    MeasurementStore,
    samples_from_trace,
)
from repro.store.traces import (
    TRACE_KEY_VERSION,
    StoredTrace,
    load_trace,
    pack_trace,
    save_trace,
    trace_key,
    unpack_trace,
)

__all__ = [
    "ARTIFACT_KINDS",
    "ArtifactCache",
    "BUNDLE_VERSION",
    "DATASET_REGISTRY",
    "DatasetSpec",
    "MEASUREMENT_VERSION",
    "MMAP_ENV_VAR",
    "MeasurementStore",
    "StoredTrace",
    "TRACE_KEY_VERSION",
    "artifact_key",
    "array_fingerprint",
    "available_datasets",
    "build_graph_from_chunks",
    "build_graph_from_shard_files",
    "cached_ordering",
    "default_cache",
    "default_cache_root",
    "get_dataset",
    "iter_edge_chunks",
    "load_graph",
    "load_trace",
    "mmap_enabled",
    "pack_trace",
    "read_edge_list_chunked",
    "register_dataset",
    "register_file_dataset",
    "register_sharded_dataset",
    "resolve_cache",
    "samples_from_trace",
    "save_trace",
    "trace_key",
    "unpack_trace",
]


def load_graph(
    name: str,
    *,
    cache: ArtifactCache | bool | None = None,
    refresh: bool = False,
    **params,
) -> Graph:
    """Resolve a registered dataset to a :class:`Graph`, cache-first.

    On a miss the spec's builder runs (generator or file parse) and the
    result is persisted; on a hit the graph is reconstructed from the
    cached CSR arrays and no build work happens at all.
    """
    spec = get_dataset(name)
    resolved = resolve_cache(cache)
    with obs.span("store.load_graph", cat="store", dataset=name):
        if resolved is None:
            return spec.build(**params)
        key = artifact_key("graph", spec.cache_payload(**params))
        graph, _hit = resolved.get_or_build(
            "graph", key, lambda: ser.pack_graph(spec.build(**params)),
            refresh=refresh, unpack=ser.unpack_graph,
        )
        return graph


def _graph_key_payload(graph: Graph) -> dict:
    return {"graph_sha256": ser.graph_fingerprint(graph)}


def cached_ordering(
    graph: Graph,
    algorithm: str,
    *,
    cache: ArtifactCache | bool | None = None,
    refresh: bool = False,
    **kwargs,
) -> OrderingResult:
    """Compute (or replay) a vertex ordering of ``graph``.

    Content-addressed: the key hashes the graph's CSR arrays plus the
    algorithm name and its keyword arguments, so a cached permutation can
    never be applied to a graph it was not computed from.
    """
    resolved = resolve_cache(cache)
    with obs.span("store.cached_ordering", cat="store", ordering=algorithm):
        if resolved is None:
            return get_ordering(algorithm)(graph, **kwargs)
        payload = {**_graph_key_payload(graph), "algorithm": algorithm, "kwargs": kwargs}
        key = artifact_key("ordering", payload)
        result, _hit = resolved.get_or_build(
            "ordering",
            key,
            lambda: ser.pack_ordering(get_ordering(algorithm)(graph, **kwargs)),
            refresh=refresh,
            unpack=ser.unpack_ordering,
        )
        return result
