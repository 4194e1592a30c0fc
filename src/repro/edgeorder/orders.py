"""Edge traversal orders for dense-frontier COO processing.

Section V-G compares three edge orders for GraphGrind's COO path: Hilbert
curve order, CSR (source-major) order and the implicit CSC
(destination-major) order.  This module registers the simple orders;
:mod:`repro.edgeorder.hilbert` provides the space-filling curve.  All
producers return a :class:`repro.graph.coo.COOEdges` plus the time spent
reordering, feeding Table VI's "edge reordering + partitioning" column.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graph.coo import COOEdges
from repro.graph.csr import Graph
from repro.edgeorder.hilbert import hilbert_order_edges

__all__ = ["EdgeOrderResult", "order_edges", "EDGE_ORDERS"]


@dataclass(frozen=True)
class EdgeOrderResult:
    """An ordered COO edge list plus the wall-clock cost of producing it."""

    coo: COOEdges
    order: str
    seconds: float


def _csr_order(graph: Graph) -> COOEdges:
    """Source-major order — what the paper calls "CSR order" for COO."""
    return COOEdges.from_graph(graph, order="csr")


def _csc_order(graph: Graph) -> COOEdges:
    """Destination-major order (the natural order of chunked partitions)."""
    return COOEdges.from_graph(graph, order="csc")


def _hilbert(graph: Graph) -> COOEdges:
    return hilbert_order_edges(COOEdges.from_graph(graph, order="csr"))


def _random_order(graph: Graph, seed: int = 0) -> COOEdges:
    """Uniformly random edge order — a worst-case locality control."""
    coo = COOEdges.from_graph(graph, order="csr")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(coo.num_edges)
    return coo.permuted(perm, order_name="random")


EDGE_ORDERS: dict[str, Callable[..., COOEdges]] = {
    "csr": _csr_order,
    "csc": _csc_order,
    "hilbert": _hilbert,
    "random": _random_order,
}


def order_edges(graph: Graph, order: str, **kwargs) -> EdgeOrderResult:
    """Produce the edge list of ``graph`` in the named order, timed."""
    try:
        producer = EDGE_ORDERS[order]
    except KeyError:
        raise ValueError(
            f"unknown edge order {order!r}; available: {sorted(EDGE_ORDERS)}"
        ) from None
    start = time.perf_counter()
    coo = producer(graph, **kwargs)
    return EdgeOrderResult(coo=coo, order=order, seconds=time.perf_counter() - start)
