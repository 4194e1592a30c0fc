"""Frontier engine, engine backends, work traces and framework personalities."""

from repro.frameworks.frontier import DensityClass, Frontier
from repro.frameworks.trace import IterationRecord, WorkTrace
from repro.frameworks.engine import EdgeOp, gather_rows
from repro.frameworks.vectorized import VectorizedEngine
from repro.frameworks.parallel import (
    MIN_WORK_ENV_VAR,
    WORKERS_ENV_VAR,
    ParallelEngine,
)
from repro.frameworks.backends import (
    BACKEND_ENV_VAR,
    BACKENDS,
    DEFAULT_BACKEND,
    EngineBackend,
    available_backends,
    get_backend,
    make_engine_backend,
    register_backend,
    resolve_backend,
)
from repro.frameworks.personality import (
    FRAMEWORKS,
    FrameworkModel,
    GRAPHGRIND,
    LIGRA,
    POLYMER,
    RuntimeEstimate,
)

__all__ = [
    "DensityClass",
    "Frontier",
    "IterationRecord",
    "WorkTrace",
    "EdgeOp",
    "VectorizedEngine",
    "ParallelEngine",
    "MIN_WORK_ENV_VAR",
    "WORKERS_ENV_VAR",
    "gather_rows",
    "BACKEND_ENV_VAR",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "EngineBackend",
    "available_backends",
    "get_backend",
    "make_engine_backend",
    "register_backend",
    "resolve_backend",
    "FRAMEWORKS",
    "FrameworkModel",
    "GRAPHGRIND",
    "LIGRA",
    "POLYMER",
    "RuntimeEstimate",
]
