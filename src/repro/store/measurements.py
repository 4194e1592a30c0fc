"""Persistent measurement store: per-chunk wall-clock timing samples.

The trace store (:mod:`repro.store.traces`) persists what an algorithm
*did*; this module persists what it *cost* on the machine that ran it.
The ``parallel`` engine backend times every chunk band of every fully
dense step and parks the measurements in the trace's ``meta`` side
channel (``trace.meta["parallel_chunks"]``) — but ``meta`` is deliberately
ephemeral: it never enters record fingerprints, trace equality, or the
trace bundle on disk (a replayed trace must be bit-identical to a fresh
one, and wall-clock never is).  Without a separate sink, every sample
would die with the process and a warm (replayed) sweep would carry zero
measurements.  The measurement store is that sink: the sixth artifact
kind, an **append-only JSONL file** of per-band samples written at record
time by :func:`repro.experiments.runner.execute`, so the (work, seconds)
pairs a ``machines calibrate`` fit needs survive process exit and
accumulate across runs.

Unlike the five bundle kinds of the artifact cache it is not
content-addressed — measurements are observations, not deterministic
functions of their inputs, so two runs of the same cell legitimately
append two different samples.  Each line is self-contained::

    {"version": 1, "trace_key": ..., "graph": ..., "algorithm": ...,
     "ordering": ..., "num_partitions": ..., "backend": "parallel",
     "workers": <effective band count>, "workers_configured": <knob>,
     "step": ..., "kind": "edgemap"|"vertexmap", "direction": ...,
     "edges": ..., "unique_dsts": ..., "unique_srcs": ..., "vertices": ...,
     "src_miss": ..., "dst_miss": ..., "remote_fraction": ..., "seconds": ...}

The work counters are the band's slice of the step's own
:class:`~repro.frameworks.trace.IterationRecord` accounting (the band
plan splits at Algorithm-1 partition boundaries, so the slice is exact),
which is precisely the feature vector of the cost model
(:mod:`repro.machine.cost`) — calibration is a linear fit away.

The log itself — line format, crash-safe append, tolerant memoized read —
is :class:`repro.store.appendlog.AppendLog`; this module keeps only the
rule for a valid sample (the current :data:`MEASUREMENT_VERSION`, with
``seconds`` present).  Each batch of samples goes out in a single write,
so concurrent sweep workers record without coordination, the next append
after a killed writer terminates its partial line instead of gluing a
sample onto it, and a line that no longer decodes is skipped.
"""

from __future__ import annotations

import os
from typing import Iterable

import numpy as np

from repro import obs
from repro.errors import CacheError
from repro.store.appendlog import AppendLog

__all__ = [
    "MEASUREMENT_VERSION",
    "MeasurementStore",
    "samples_from_trace",
]

#: Version tag stamped on every sample line; bump when the sample schema
#: or the meaning of the work counters changes, so a fitter can skip (or
#: translate) stale lines instead of mixing incompatible features.
MEASUREMENT_VERSION = 1

#: Directory (under the artifact-cache root) and file holding the samples.
MEASUREMENT_DIR = "measurement"
MEASUREMENT_FILE = "samples.jsonl"


def _sample(line) -> dict | None:
    """A line of the current schema that carries its measurement, else
    ``None`` (stale or foreign lines are skipped, never mixed in)."""
    if (
        isinstance(line, dict)
        and line.get("version") == MEASUREMENT_VERSION
        and "seconds" in line
    ):
        return line
    return None


class MeasurementStore:
    """Append-only JSONL sink of per-chunk timing samples.

    Lives at ``<cache root>/measurement/samples.jsonl`` when attached to
    an artifact cache (:meth:`in_cache`), or at any explicit path.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self._log = AppendLog(path, _sample)
        self.path = self._log.path

    @classmethod
    def in_cache(cls, cache=None) -> "MeasurementStore | None":
        """The store inside an artifact cache (same ``cache=`` convention
        as everywhere: ``None``/``True`` = default cache honouring
        ``REPRO_CACHE_DIR``/``REPRO_CACHE_OFF``, ``False`` = disabled).
        Returns ``None`` when caching is disabled."""
        from repro.store.cache import resolve_cache

        resolved = resolve_cache(cache)
        if resolved is None:
            return None
        return cls(resolved.root / MEASUREMENT_DIR / MEASUREMENT_FILE)

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, samples: Iterable[dict]) -> int:
        """Persist samples, one JSON line each, in a single write.

        Multiple processes may append concurrently (sweep workers record
        their own cells).
        """
        samples = list(samples)
        try:
            self._log.append(samples)
        except OSError as exc:
            raise CacheError(
                f"cannot append to measurement store {self.path}: {exc}"
            ) from exc
        count = len(samples)
        if count and obs.enabled():
            obs.event("measurements.append", cat="store", samples=count)
            obs.metrics().counter("measurements.samples", count)
        return count

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def samples(self) -> list[dict]:
        """Every valid sample line, in file order."""
        try:
            return self._log.read()
        except OSError as exc:
            raise CacheError(
                f"cannot read measurement store {self.path}: {exc}"
            ) from exc

    def count(self) -> int:
        return len(self.samples())

    def clean(self) -> bool:
        """Delete the sample file; returns whether anything was removed."""
        return self._log.delete()

    def __len__(self) -> int:
        return self.count()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MeasurementStore(path={str(self.path)!r})"


def samples_from_trace(
    trace,
    trace_key: str,
    *,
    graph_name: str,
    ordering: str,
    num_partitions: int,
    boundaries,
    backend: str = "parallel",
) -> list[dict]:
    """Convert a trace's ``meta["parallel_chunks"]`` entries into
    self-contained sample dicts.

    Each band's work counters come from the step's own
    :class:`~repro.frameworks.trace.IterationRecord`: the band plan splits
    at Algorithm-1 partition boundaries, so the band ``[lo, hi)`` maps to
    an exact slice of the per-partition accounting arrays.  Miss
    fractions are the record's sampled values (``-1.0`` = not measured;
    the fitter substitutes the cost model's defaults), and
    ``remote_fraction`` is 0: chunk workers are threads of one process,
    every access is NUMA-local.
    """
    chunks = trace.meta.get("parallel_chunks")
    if not chunks:
        return []
    bounds = np.asarray(boundaries)
    out: list[dict] = []
    for chunk in chunks:
        try:
            step = int(chunk["step"])
            rec = trace.rows[trace.steps[step]]
            bands = chunk["bands"]
        except (KeyError, TypeError, IndexError):
            continue  # malformed entry: skip, never fail the execution
        for band in bands:
            lo, hi = int(band["vertices"][0]), int(band["vertices"][1])
            p_lo = int(np.searchsorted(bounds, lo))
            p_hi = int(np.searchsorted(bounds, hi))
            sl = slice(p_lo, p_hi)
            out.append({
                "version": MEASUREMENT_VERSION,
                "trace_key": str(trace_key),
                "graph": str(graph_name),
                "algorithm": str(trace.algorithm),
                "ordering": str(ordering),
                "num_partitions": int(num_partitions),
                "backend": str(backend),
                "workers": int(chunk.get("workers", len(bands))),
                "workers_configured": int(
                    chunk.get("workers_configured", chunk.get("workers", 0))
                ),
                "step": step,
                "kind": str(chunk.get("kind", "?")),
                "direction": str(chunk.get("direction", "?")),
                "edges": int(band["edges"]),
                "unique_dsts": int(rec.part_dsts[sl].sum()),
                "unique_srcs": int(rec.part_srcs[sl].sum()),
                "vertices": int(rec.part_vertices[sl].sum()),
                "src_miss": float(rec.src_miss),
                "dst_miss": float(rec.dst_miss),
                "remote_fraction": 0.0,
                "seconds": float(band["seconds"]),
            })
    return out
