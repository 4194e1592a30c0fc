"""Least-squares calibration of machine-model knobs from measured timings.

The cost model (:mod:`repro.machine.cost`) prices a partition's work as

    time = t_edge*E*(1 + mp*sm*numa) + t_dst*D*(1 + mp*dm*numa)
         + t_src*S + t_vertex*V,          numa = 1 + (rf - 1)*r

with per-machine knobs ``mp`` (miss penalty), ``rf`` (NUMA remote factor)
and a uniform ``time_scale`` on the four ``t_*`` coefficients
(:meth:`repro.machine.models.MachineModel.derive_cost_model`).  Those
knobs were hand-set; this module fits them from data — the (work,
seconds) pairs the ``parallel`` backend records per chunk band and the
measurement store (:mod:`repro.store.measurements`) persists.

The model is *linear* in a reparameterization.  With the base
coefficients :math:`t_*` fixed, define per sample

    A = t_edge*E + t_dst*D + t_src*S + t_vertex*V    (miss-free work)
    B = t_edge*E*sm + t_dst*D*dm                     (miss-exposed work)
    C = B * r                                        (remote-exposed work)

Then ``predicted = ts*A + (ts*mp)*B + (ts*mp*(rf-1))*C`` exactly — so an
ordinary least-squares solve for ``x = (x1, x2, x3)`` over the design
matrix ``[A B C]`` recovers ``ts = x1``, ``mp = x2/x1``,
``rf = 1 + x3/x2``.  Degenerate designs are handled by dropping columns:
samples whose remote fraction never varies cannot identify ``rf``
(threaded in-process measurements all have ``r = 0``), and samples with
no miss-exposed work cannot identify ``mp`` — the corresponding knobs
fall back to the base model's values rather than fitting noise.  The
same back-off applies when a full-rank solve comes out unphysical
(negative weights): trailing columns are dropped until the solution is
physical, degrading gracefully to a scale-only fit.  If even that
produces a non-positive time scale the measurements are inconsistent
with the cost-model basis and :class:`CalibrationError` is raised
instead of producing an invalid machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import CalibrationError
from repro.machine.cost import CostModel, DEFAULT_COST_MODEL, PartitionWork
from repro.machine.models import MachineModel
from repro.machine.numa import PAPER_MACHINE

__all__ = [
    "CalibrationResult",
    "CalibrationSample",
    "fit_machine",
    "predict_seconds",
]

#: Fallbacks for the ``-1.0`` "not measured" miss sentinels — the cost
#: model's own :class:`PartitionWork` defaults.
DEFAULT_SRC_MISS = 0.3
DEFAULT_DST_MISS = 0.1


@dataclass(frozen=True)
class CalibrationSample:
    """One (work, measured seconds) observation.

    The work counters are the cost model's feature vector; ``algorithm``
    and ``graph`` only label the residual report.
    """

    seconds: float
    edges: float = 0.0
    unique_dsts: float = 0.0
    unique_srcs: float = 0.0
    vertices: float = 0.0
    src_miss: float = DEFAULT_SRC_MISS
    dst_miss: float = DEFAULT_DST_MISS
    remote_fraction: float = 0.0
    algorithm: str = "?"
    graph: str = "?"

    @classmethod
    def from_record(cls, record: dict) -> "CalibrationSample":
        """Build a sample from one measurement-store line.

        ``-1.0`` miss sentinels (step not sampled) fall back to the cost
        model's default fractions; a malformed record raises
        :class:`CalibrationError`.
        """
        try:
            sm = float(record.get("src_miss", -1.0))
            dm = float(record.get("dst_miss", -1.0))
            return cls(
                seconds=float(record["seconds"]),
                edges=float(record.get("edges", 0.0)),
                unique_dsts=float(record.get("unique_dsts", 0.0)),
                unique_srcs=float(record.get("unique_srcs", 0.0)),
                vertices=float(record.get("vertices", 0.0)),
                src_miss=sm if sm >= 0.0 else DEFAULT_SRC_MISS,
                dst_miss=dm if dm >= 0.0 else DEFAULT_DST_MISS,
                remote_fraction=float(record.get("remote_fraction", 0.0)),
                algorithm=str(record.get("algorithm", "?")),
                graph=str(record.get("graph", "?")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CalibrationError(
                f"malformed measurement sample: {exc}"
            ) from exc


def _features(samples, base: CostModel):
    """The (A, B, C, r, y) arrays of the linearized model."""
    E = np.array([s.edges for s in samples], dtype=np.float64)
    D = np.array([s.unique_dsts for s in samples], dtype=np.float64)
    S = np.array([s.unique_srcs for s in samples], dtype=np.float64)
    V = np.array([s.vertices for s in samples], dtype=np.float64)
    sm = np.array([s.src_miss for s in samples], dtype=np.float64)
    dm = np.array([s.dst_miss for s in samples], dtype=np.float64)
    r = np.array([s.remote_fraction for s in samples], dtype=np.float64)
    y = np.array([s.seconds for s in samples], dtype=np.float64)
    A = base.t_edge * E + base.t_dst * D + base.t_src * S + base.t_vertex * V
    B = base.t_edge * E * sm + base.t_dst * D * dm
    return A, B, B * r, r, y


def predict_seconds(
    samples, machine: MachineModel, base: CostModel = DEFAULT_COST_MODEL
) -> np.ndarray:
    """Cost-model prediction for every sample under ``machine`` — the
    exact pricing arithmetic (:meth:`CostModel.partition_seconds`), not
    the fit's linearization, so report residuals measure the deployed
    model."""
    model = machine.derive_cost_model(base)
    work = PartitionWork(
        edges=np.array([s.edges for s in samples], dtype=np.float64),
        unique_dsts=np.array([s.unique_dsts for s in samples], dtype=np.float64),
        unique_srcs=np.array([s.unique_srcs for s in samples], dtype=np.float64),
        vertices=np.array([s.vertices for s in samples], dtype=np.float64),
        src_miss_fraction=np.array([s.src_miss for s in samples], dtype=np.float64),
        dst_miss_fraction=np.array([s.dst_miss for s in samples], dtype=np.float64),
    )
    remote = np.array([s.remote_fraction for s in samples], dtype=np.float64)
    return model.partition_seconds(work, remote_fraction=remote)


@dataclass(frozen=True)
class CalibrationResult:
    """A fitted machine plus the evidence behind it."""

    machine: MachineModel
    base: CostModel
    num_samples: int
    #: Per-(algorithm, graph) residual rows:
    #: ``{"algorithm", "graph", "samples", "measured_s", "predicted_s",
    #: "rel_error"}`` — kept per cell so a bad fit on one workload is
    #: visible instead of averaged away.
    cells: tuple
    #: ``|total predicted - total measured| / total measured``.
    overall_relative_error: float

    def report_rows(self) -> list[dict]:
        return [dict(row) for row in self.cells]


def fit_machine(
    samples,
    name: str = "calibrated",
    *,
    base: CostModel = DEFAULT_COST_MODEL,
    description: str = "",
    num_sockets: int | None = None,
    threads_per_socket: int | None = None,
) -> CalibrationResult:
    """Fit (time_scale, miss_penalty, remote_factor) to ``samples``.

    ``samples`` are :class:`CalibrationSample`\\ s; ``base`` supplies the
    fixed per-operation coefficients (the defaults, which pricing derives
    every machine from) and the fallback knobs for directions the data
    cannot identify.  The topology of the returned :class:`MachineModel`
    is *not* fitted — it is a declaration about the measured machine;
    defaults to the paper machine's.

    Raises :class:`CalibrationError` on an empty or degenerate sample set
    (no modelled work, non-finite measurements, non-positive fitted time
    scale).
    """
    samples = list(samples)
    with obs.span("machine.fit", cat="machine", samples=len(samples), machine=name):
        return _fit_machine_inner(
            samples, name, base, description, num_sockets, threads_per_socket
        )


def _fit_machine_inner(
    samples, name, base, description, num_sockets, threads_per_socket
) -> CalibrationResult:
    if not samples:
        raise CalibrationError(
            "no measurement samples to fit from; per-chunk timings are "
            "recorded by the parallel engine backend during "
            "trace-store-enabled runs (REPRO_BACKEND=parallel with "
            "REPRO_PARALLEL_WORKERS >= 2)"
        )
    A, B, C, r, y = _features(samples, base)
    if not np.all(np.isfinite(y)) or np.any(y < 0):
        raise CalibrationError("measured seconds must be finite and >= 0")
    if not np.any(A > 0):
        raise CalibrationError(
            "samples carry no modelled work (all feature counters are "
            "zero); nothing to fit"
        )

    # Column cascade: A always; B only when some miss-exposed work
    # exists; C only on top of B, when the remote fraction actually
    # varies (C = B*r is collinear with B under a constant r, and lstsq's
    # rank check below catches anything subtler).
    cols = [A]
    labels = ["A"]
    if np.any(B > 0):
        cols.append(B)
        labels.append("B")
        active = B > 0
        if np.any(C > 0) and np.unique(r[active]).size > 1:
            cols.append(C)
            labels.append("C")
    # Solve, then back off: a rank-deficient design or an unphysical
    # solution (non-positive time scale, negative miss/remote weight —
    # real thread timings are noisy enough that the full basis can be
    # unidentifiable even at full rank) drops the trailing column and
    # refits.  The scale-only fit that remains when everything else is
    # dropped is always physical for non-degenerate data.  A column
    # dropped because *its own* weight came out negative under an
    # otherwise healthy solve is not unidentifiable — the data observed
    # that knob and priced it at (or below) zero, so the knob clamps to
    # its physical boundary instead of reverting to the base model.
    clamp_at_boundary: dict[str, bool] = {}
    while True:
        M = np.stack(cols, axis=1)
        x, _res, rank, _sv = np.linalg.lstsq(M, y, rcond=None)
        # A coefficient that is negative by mere rounding (a knob whose
        # true weight is 0 solves to ~ -1e-17) is kept — the knob
        # recovery below clamps it to its boundary; only *materially*
        # negative weights mean the basis does not fit the data.
        tol = 1e-9 * float(np.max(np.abs(x))) if x.size else 0.0
        ok = (
            rank == M.shape[1]
            and bool(np.all(np.isfinite(x)))
            and x[0] > 0
            and bool(np.all(x[1:] >= -tol))
        )
        if ok or len(cols) == 1:
            break
        observed_zero = (
            rank == M.shape[1]
            and bool(np.all(np.isfinite(x)))
            and x[0] > 0
            and bool(np.all(x[1:-1] >= -tol))
            and float(x[-1]) < -tol
        )
        cols.pop()
        clamp_at_boundary[labels.pop()] = observed_zero

    ts = float(x[0])
    if not np.isfinite(ts) or ts <= 0:
        raise CalibrationError(
            f"fit produced a non-positive time scale ({ts:.4g}); the "
            "measurements are inconsistent with the cost-model basis "
            "(too few samples, or timings dominated by noise)"
        )
    if "B" in labels and np.isfinite(x[1]):
        mp = max(0.0, float(x[1]) / ts)
    elif clamp_at_boundary.get("B"):
        mp = 0.0
    else:
        mp = base.miss_penalty
    if "C" in labels and mp > 0 and float(x[1]) > 0 and np.isfinite(x[2]):
        rf = max(1.0, 1.0 + float(x[2]) / float(x[1]))
    elif clamp_at_boundary.get("C") or mp == 0.0:
        # The data observed remote-exposed work and priced it at zero
        # extra cost (or misses cost nothing, making rf moot): no remote
        # penalty, not the base model's.
        rf = 1.0
    else:
        # Remote behaviour unobserved (e.g. every sample came from
        # in-process threads, r = 0 throughout): keep the base knob.
        rf = base.remote_factor

    machine = MachineModel(
        name=name,
        description=description
        or f"least-squares fit from {len(samples)} measured chunk timing(s)",
        num_sockets=int(num_sockets or PAPER_MACHINE.num_sockets),
        threads_per_socket=int(
            threads_per_socket or PAPER_MACHINE.threads_per_socket
        ),
        miss_penalty=mp,
        remote_factor=rf,
        time_scale=ts,
    )

    predicted = predict_seconds(samples, machine, base)
    groups: dict[tuple[str, str], list[int]] = {}
    for i, s in enumerate(samples):
        groups.setdefault((s.algorithm, s.graph), []).append(i)
    cells = []
    for (algo, graph), idx in sorted(groups.items()):
        meas = float(y[idx].sum())
        pred = float(predicted[idx].sum())
        cells.append({
            "algorithm": algo,
            "graph": graph,
            "samples": len(idx),
            "measured_s": meas,
            "predicted_s": pred,
            "rel_error": abs(pred - meas) / meas if meas > 0 else float("inf"),
        })
    total_meas = float(y.sum())
    total_pred = float(predicted.sum())
    overall = abs(total_pred - total_meas) / total_meas if total_meas > 0 else float("inf")
    return CalibrationResult(
        machine=machine,
        base=base,
        num_samples=len(samples),
        cells=tuple(cells),
        overall_relative_error=overall,
    )
