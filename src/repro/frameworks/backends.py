"""Engine backend protocol, registry and selection.

The frontier engine is the execution core of every algorithm run, and the
library ships two interchangeable implementations of it:

* ``vectorized`` (the default) —
  :class:`repro.frameworks.vectorized.VectorizedEngine`, a Ligra-style
  push/pull engine that executes dense edgemaps over precomputed COO/CSC
  streams, reduces with ``np.bincount`` / ``np.ufunc.reduceat`` segment
  kernels where it can, and memoizes every layout-dependent quantity
  (partition maps, full-stream work records, segment boundaries) across
  engine constructions.
* ``parallel`` — :class:`repro.frameworks.parallel.ParallelEngine`, the
  vectorized engine with fully dense edgemap/vertexmap steps fanned out
  across threaded chunk workers over the Algorithm-1 partition bands;
  each worker owns a disjoint destination range, so results stay
  bit-identical at every worker count (``REPRO_PARALLEL_WORKERS``; see
  the module docstring for the determinism argument).

Both are defined as "bit-identical to the oracle engine on every
algorithm, ordering and frontier density".  The oracle is a deliberately
simple engine kept in the test tree (``tests/oracles.py``), which
registers it as ``reference`` for the tests only; the differential
conformance suite (``tests/frameworks/test_backend_conformance.py``) pins
the bit-equality, and a determinism suite
(``tests/frameworks/test_parallel_determinism.py``) pins the parallel
backend's worker-count invariance.

Backends implement the :class:`EngineBackend` protocol — construction
from ``(graph, boundaries, trace)`` plus the ``edgemap`` / ``vertexmap``
entry points — so algorithms never name a concrete class.

Selection is threaded end to end: algorithms accept ``backend=``, the
experiment runner and sweep orchestrator forward it, the CLI exposes
``--backend`` and the environment variable :data:`BACKEND_ENV_VAR`
(``REPRO_BACKEND``) supplies the process-wide default, which is how the
CI matrix runs the whole tier-1 suite under the parallel backend.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from repro.errors import SimulationError
from repro.frameworks.parallel import ParallelEngine
from repro.frameworks.vectorized import VectorizedEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.frameworks.engine import EdgeOp
    from repro.frameworks.frontier import Frontier
    from repro.frameworks.trace import WorkTrace
    from repro.graph.csr import Graph

__all__ = [
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "EngineBackend",
    "available_backends",
    "get_backend",
    "make_engine_backend",
    "register_backend",
    "resolve_backend",
]

#: Environment variable holding the process-wide default backend name.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Backend used when neither the caller nor the environment picks one.
DEFAULT_BACKEND = "vectorized"


@runtime_checkable
class EngineBackend(Protocol):
    """What every engine backend must provide.

    A backend is a class constructed per algorithm run from the graph, the
    accounting partition boundaries and an empty :class:`WorkTrace`; the
    instance then executes ``edgemap`` / ``vertexmap`` steps.  Two
    backends are *conformant* when, fed the same construction arguments
    and the same step sequence, they produce bit-identical next
    frontiers, bit-identical state mutations (through the user-supplied
    ``gather``/``apply`` callables) and bit-identical trace records.
    """

    graph: "Graph"
    boundaries: np.ndarray
    trace: "WorkTrace"
    num_partitions: int

    def edgemap(
        self,
        frontier: "Frontier",
        op: "EdgeOp",
        state: dict,
        direction: str = "auto",
        dst_candidates: np.ndarray | None = None,
    ) -> "Frontier": ...

    def vertexmap(
        self,
        frontier: "Frontier",
        fn: Callable[[np.ndarray, dict], np.ndarray | None],
        state: dict,
    ) -> "Frontier": ...


#: name -> backend class; populated below and via :func:`register_backend`.
BACKENDS: dict[str, type] = {}


def register_backend(name: str, cls: type) -> type:
    """Register an engine backend class under ``name``."""
    if name in BACKENDS:
        raise SimulationError(f"engine backend {name!r} already registered")
    BACKENDS[name] = cls
    return cls


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend name: explicit argument > ``REPRO_BACKEND`` >
    :data:`DEFAULT_BACKEND`.  Validates against the registry."""
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name not in BACKENDS:
        raise SimulationError(
            f"unknown engine backend {name!r}; available: {available_backends()}"
        )
    return name


def get_backend(name: str | None = None) -> type:
    """The backend class for ``name`` (resolved per :func:`resolve_backend`)."""
    return BACKENDS[resolve_backend(name)]


def make_engine_backend(
    graph: "Graph",
    boundaries: np.ndarray,
    trace: "WorkTrace",
    backend: str | None = None,
) -> EngineBackend:
    """Construct an engine of the resolved backend."""
    return get_backend(backend)(graph, boundaries, trace)


register_backend("vectorized", VectorizedEngine)
register_backend("parallel", ParallelEngine)
