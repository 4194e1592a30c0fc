"""Execution traces: what an algorithm did, per iteration and per partition.

Runtimes in this reproduction are computed in two stages: graph algorithms
execute *semantically* (producing correct ranks, distances, labels...) while
recording a :class:`WorkTrace` of how much work each partition contributed
on each iteration; the framework personalities then price the trace with
the machine model.  Decoupling execution from pricing keeps the algorithms
pure and lets one trace be re-priced under several framework models —
exactly how the Table III sweep stays tractable.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Iterable

import numpy as np

from repro import obs
from repro.frameworks.frontier import DensityClass

__all__ = [
    "DENSITY_CODES",
    "DENSITY_FROM_CODE",
    "IterationRecord",
    "WorkTrace",
    "record_fingerprint",
    "records_equal",
    "traces_equal",
]

#: Serialization contract for :class:`DensityClass`: each enum member has a
#: stable small-int code used by the on-disk trace bundles
#: (:mod:`repro.store.traces`).  Codes are append-only — a new density
#: class gets a new code, existing codes never change meaning — so any
#: persisted trace stays readable.
DENSITY_CODES: dict[DensityClass, int] = {
    DensityClass.DENSE: 0,
    DensityClass.MEDIUM: 1,
    DensityClass.SPARSE: 2,
}
DENSITY_FROM_CODE: dict[int, DensityClass] = {v: k for k, v in DENSITY_CODES.items()}


@dataclass(frozen=True)
class IterationRecord:
    """Work performed by one edgemap/vertexmap step.

    Per-partition arrays all have length P (the partition count of the
    layout under which the trace was recorded).
    """

    kind: str                       # "edgemap" | "vertexmap"
    direction: str                  # "push" | "pull" | "-" (vertexmap)
    density: DensityClass
    active_vertices: int
    active_edges: int
    part_edges: np.ndarray          # edges processed per partition
    part_dsts: np.ndarray           # distinct destinations updated per partition
    part_srcs: np.ndarray           # distinct sources read per partition
    part_vertices: np.ndarray       # vertexmap work per partition chunk
    src_miss: float = -1.0          # measured miss fraction of this step's
    dst_miss: float = -1.0          # source/destination access streams
    #                                 (-1 = not measured; pricing falls back
    #                                 to the layout-level measurement)

    def total_edges(self) -> int:
        return int(self.part_edges.sum())


# ----------------------------------------------------------------------
# Serialization contract helpers (see repro.store.traces for the bundle
# layout).  A record is identified *bitwise*: float fields compare by
# their IEEE-754 bytes, so NaN == NaN (same payload), -0.0 != +0.0, and
# the -1.0 "not measured" miss sentinels survive exactly.  Bitwise
# identity is what "lossless round-trip" means for a trace.
# ----------------------------------------------------------------------

def record_fingerprint(rec: IterationRecord) -> bytes:
    """Canonical byte string identifying a record's exact contents.

    Two records with the same fingerprint are interchangeable for both
    replay and pricing; :func:`traces_equal` compares traces step by step
    through it.
    """
    parts = [
        rec.kind.encode(), rec.direction.encode(),
        str(DENSITY_CODES[rec.density]).encode(),
        str(int(rec.active_vertices)).encode(),
        str(int(rec.active_edges)).encode(),
        np.float64(rec.src_miss).tobytes(),
        np.float64(rec.dst_miss).tobytes(),
    ]
    for arr in (rec.part_edges, rec.part_dsts, rec.part_srcs, rec.part_vertices):
        a = np.asarray(arr)
        parts.append(str(a.dtype).encode())
        parts.append(str(a.shape).encode())
        parts.append(a.tobytes())
    # Every variable-length field is delimited: without the separators,
    # adjacent decimal strings could collide ('1'+'23' == '12'+'3') and
    # alias two distinct records into one.
    return b"\0".join(parts)


def records_equal(a: IterationRecord, b: IterationRecord) -> bool:
    """Bitwise equality of two records (NaN-safe, sentinel-exact)."""
    return record_fingerprint(a) == record_fingerprint(b)


def traces_equal(a: "WorkTrace", b: "WorkTrace") -> bool:
    """Bitwise equality of two traces: metadata and every record."""
    return (
        a.algorithm == b.algorithm
        and a.graph_name == b.graph_name
        and a.num_partitions == b.num_partitions
        and len(a.records) == len(b.records)
        and all(records_equal(x, y) for x, y in zip(a.records, b.records))
    )


@dataclass
class WorkTrace:
    """The work of one execution, step by step, plus identifying metadata.

    A trace holds what its bundle (:mod:`repro.store.traces`) holds:
    ``rows``, its distinct :class:`IterationRecord` objects in first-use
    order, and ``steps``, one row index per step.  Only :meth:`append` and
    :meth:`extend` decide which steps share a row, by record identity, as
    the engines' record memo shares objects; saving, loading and pricing
    read the layout as it is.  ``records`` is the per-step view.

    ``meta`` is the trace's *measurement side channel*: free-form,
    in-process-only annotations about how the trace was produced (e.g.
    the ``parallel`` backend's per-chunk wall-clock timings, the raw
    material for fitting machine-model coefficients).  It is deliberately
    excluded from :func:`traces_equal`, from record fingerprints and from
    the persisted trace bundles — wall-clock is nondeterministic, and two
    traces that did identical *work* must stay interchangeable for replay
    and pricing regardless of how long any chunk happened to take.
    """

    algorithm: str
    graph_name: str
    num_partitions: int
    rows: list[IterationRecord] = field(default_factory=list)
    steps: list[int] = field(default_factory=list)
    meta: dict = field(default_factory=dict, compare=False)
    #: Per-step records to build the trace from instead, shared by identity
    #: as :meth:`append` shares them (``dataclasses.replace`` passes them).
    records: InitVar[Iterable[IterationRecord] | None] = None

    def __post_init__(self, records: Iterable[IterationRecord] | None) -> None:
        self._row_of = {id(record): i for i, record in enumerate(self.rows)}
        if records is not None:
            self.rows, self.steps, self._row_of = [], [], {}
            self.steps.extend(self._row(record) for record in records)

    def _row(self, record: IterationRecord) -> int:
        """The row holding ``record`` itself, added if this trace has none."""
        row = self._row_of.get(id(record))
        if row is None:
            row = self._row_of[id(record)] = len(self.rows)
            self.rows.append(record)
        return row

    def append(self, record: IterationRecord) -> None:
        """Append one executed step."""
        self.steps.append(self._row(record))
        # Live instrumentation seam: every step a backend *executes* flows
        # through here, while replayed traces are rebuilt from their
        # bundle's rows and steps and correctly emit nothing.
        if obs.enabled():
            obs.event(
                "engine.step",
                cat="engine",
                step=len(self.steps),
                kind=record.kind,
                direction=record.direction,
                density=record.density.name.lower(),
                active_vertices=int(record.active_vertices),
                active_edges=int(record.active_edges),
            )

    def extend(self, other: "WorkTrace") -> None:
        """Append every step of ``other``: its rows join by identity, and
        its ``meta["parallel_chunks"]`` entries come along with each
        ``step`` shifted past this trace's steps.  Emits no ``engine.step``
        event: ``other``'s steps emitted theirs when they executed."""
        offset = len(self.steps)
        rows = [self._row(record) for record in other.rows]
        self.steps.extend(rows[i] for i in other.steps)
        chunks = other.meta.get("parallel_chunks")
        if chunks:
            self.meta.setdefault("parallel_chunks", []).extend(
                {**chunk, "step": chunk["step"] + offset} for chunk in chunks)

    @property
    def num_iterations(self) -> int:
        return len(self.steps)

    def total_edges(self) -> int:
        return sum(r.total_edges() for r in self.records)

    def edgemap_records(self) -> list[IterationRecord]:
        return [r for r in self.records if r.kind == "edgemap"]

    def vertexmap_records(self) -> list[IterationRecord]:
        return [r for r in self.records if r.kind == "vertexmap"]

    def density_classes(self) -> set[DensityClass]:
        """The set of frontier classes seen — Table II's F column."""
        return {r.density for r in self.records if r.kind == "edgemap"}

    def dominant_direction(self) -> str:
        """"B" if most edgemap work ran pull (backward), else "F" — the
        Table II traversal-direction column."""
        pull = sum(r.total_edges() for r in self.records if r.direction == "pull")
        push = sum(r.total_edges() for r in self.records if r.direction == "push")
        return "B" if pull >= push else "F"


# In the class body ``records`` names the constructor's per-step input,
# whose default the dataclass reads from there; on an instance it is this
# view, a new list on every read (append and extend add steps).
WorkTrace.records = property(lambda self: [self.rows[i] for i in self.steps])
