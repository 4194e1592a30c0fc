"""Lossless array-bundle encoding for cacheable artifacts.

One artifact == one flat ``dict[str, np.ndarray]``; the cache persists it
as per-array ``.npy`` sidecar files (mmap-friendly bundle format v2 — see
:mod:`repro.store.cache`).
Scalar metadata (names, algorithm labels, timings, non-array ordering
diagnostics) rides along in a single JSON string array under
``"meta_json"`` so bundles stay ``allow_pickle=False`` safe.  The unpack
functions accept read-only (including memory-mapped) arrays: they only
read their inputs, and the containers they build re-validate and expose
the arrays read-only.  Two artifact families are packed here, mirroring
their cache kinds (traces pack in :mod:`repro.store.traces`):

=============  ======================================  =====================
kind           packs                                   unpacks to
=============  ======================================  =====================
``graph``      CSR offsets + adjacency + name          :class:`Graph`
``ordering``   permutation + meta + timing             :class:`OrderingResult`
=============  ======================================  =====================

Round-trips are bit-identical: the CSR/CSC builders canonicalize edge
order (sorted within each adjacency group), so rebuilding the CSC view
from the stored CSR pairs reproduces the original arrays exactly — the
property the cache tests pin down.
"""

from __future__ import annotations

import json
from weakref import WeakKeyDictionary

import numpy as np

from repro.errors import CacheError
from repro.graph.csr import CSRMatrix, Graph

__all__ = [
    "graph_fingerprint",
    "pack_graph",
    "unpack_graph",
    "pack_ordering",
    "unpack_ordering",
]


def _meta_to_array(meta: dict) -> np.ndarray:
    return np.array(json.dumps(meta, sort_keys=True))


def _meta_from_arrays(arrays: dict) -> dict:
    try:
        return json.loads(str(arrays["meta_json"]))
    except (KeyError, json.JSONDecodeError) as exc:
        raise CacheError(f"artifact bundle missing or corrupt meta_json: {exc}") from exc


def _require(arrays: dict, *names: str) -> list[np.ndarray]:
    try:
        return [arrays[name] for name in names]
    except KeyError as exc:
        raise CacheError(f"artifact bundle missing array {exc}") from exc


#: Graph -> fingerprint.  Graphs are immutable, so the digest is computed
#: once per loaded graph per process — warm trace-replay sweeps key many
#: executions off one graph and must not re-hash O(m) arrays each time.
_FINGERPRINT_MEMO: "WeakKeyDictionary[Graph, str]" = WeakKeyDictionary()


def graph_fingerprint(graph: Graph) -> str:
    """Content digest of a graph's structure (CSR arrays).

    The CSC view is fully determined by the CSR view, so hashing offsets +
    adjacency identifies the graph.  The name is deliberately excluded:
    renaming a graph must not invalidate derived artifacts.
    """
    from repro.store.cache import array_fingerprint

    cached = _FINGERPRINT_MEMO.get(graph)
    if cached is None:
        cached = array_fingerprint(graph.csr.offsets, graph.csr.adj)
        _FINGERPRINT_MEMO[graph] = cached
    return cached


# ----------------------------------------------------------------------
# graph
# ----------------------------------------------------------------------

def pack_graph(graph: Graph) -> dict[str, np.ndarray]:
    """Both directional views are stored so unpacking skips the
    O(m log m) CSR->CSC rebuild."""
    return {
        "offsets": graph.csr.offsets,
        "adj": graph.csr.adj,
        "csc_offsets": graph.csc.offsets,
        "csc_adj": graph.csc.adj,
        "meta_json": _meta_to_array({"kind": "graph", "name": graph.name}),
    }


def unpack_graph(arrays: dict) -> Graph:
    """Rebuild a graph from cache arrays via the trusted CSR constructor.

    The bundle key is a content digest of these arrays and they were
    validated when packed, so the O(m) adjacency range scan is skipped —
    under ``REPRO_MMAP=1`` that scan would fault every mmapped page of
    ``adj`` back in and defeat the lazy out-of-core load.
    """
    offsets, adj, csc_offsets, csc_adj = _require(
        arrays, "offsets", "adj", "csc_offsets", "csc_adj"
    )
    meta = _meta_from_arrays(arrays)
    return Graph(
        csr=CSRMatrix.trusted(offsets, adj),
        csc=CSRMatrix.trusted(csc_offsets, csc_adj),
        name=meta.get("name", "graph"),
    )


# ----------------------------------------------------------------------
# ordering
# ----------------------------------------------------------------------

def pack_ordering(result) -> dict[str, np.ndarray]:
    """Pack an :class:`repro.ordering.base.OrderingResult`.

    Array-valued meta entries (VEBO's boundaries / counts / assignment)
    become ``meta.<key>`` arrays; JSON-representable scalars go into the
    meta blob; anything else is dropped with no way to round-trip, which
    no built-in ordering produces.
    """
    arrays: dict[str, np.ndarray] = {"perm": result.perm}
    scalars: dict = {}
    for key, value in result.meta.items():
        if isinstance(value, np.ndarray):
            arrays[f"meta.{key}"] = value
        elif isinstance(value, (bool, int, float, str)) or value is None:
            scalars[key] = value
        elif isinstance(value, np.generic):
            scalars[key] = value.item()
    arrays["meta_json"] = _meta_to_array(
        {
            "kind": "ordering",
            "algorithm": result.algorithm,
            "seconds": float(result.seconds),
            "scalars": scalars,
        }
    )
    return arrays


def unpack_ordering(arrays: dict):
    from repro.ordering.base import OrderingResult

    (perm,) = _require(arrays, "perm")
    meta_blob = _meta_from_arrays(arrays)
    meta = dict(meta_blob.get("scalars", {}))
    for name, value in arrays.items():
        if name.startswith("meta."):
            meta[name[len("meta."):]] = value
    return OrderingResult(
        perm=perm,
        algorithm=meta_blob.get("algorithm", "unknown"),
        seconds=float(meta_blob.get("seconds", 0.0)),
        meta=meta,
    )
