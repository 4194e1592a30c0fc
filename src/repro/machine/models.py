"""Machine-model registry: named machine personalities for pricing.

The machine model of :mod:`repro.machine.cost` / :mod:`repro.machine.numa`
is calibrated against the paper's testbed (a 4-socket Xeon E7-4860 v2).
Section V's results — thread scaling, NUMA sensitivity, the per-machine
deltas behind Table III — are the *same work* priced under *different
machine assumptions*.  A :class:`MachineModel` makes those assumptions a
first-class, nameable configuration:

* the topology (sockets x threads per socket) the schedulers fill;
* the cache-miss penalty multiplier of the cost model;
* the NUMA remote-access multiplier;
* a uniform per-operation time scale (core speed relative to the paper's
  Xeon).

A machine is a **pricing dimension**, exactly like the framework
personality: it derives the :class:`~repro.machine.cost.CostModel` and
:class:`~repro.machine.numa.NUMATopology` a
:class:`~repro.frameworks.personality.FrameworkModel` prices with, and it
never enters an execution's identity — the work trace records what the
algorithm *did*, which no machine assumption can change.  That split is
what lets ``sweep reprice`` turn one night of executions into arbitrarily
many machine-scenario studies: a warm trace store prices the full
(framework x machine) matrix with zero fresh executions.

:data:`DEFAULT_MACHINE` (``paper-xeon``) reproduces the pre-machine-layer
coefficients bit for bit, so pricing under the default machine is
byte-identical to pricing with no machine at all.

User-defined machines travel as small JSON personality files
(:func:`save_machine` / :func:`load_machine` — a lossless round trip:
floats survive bit-identically through JSON's shortest-exact rendering),
and a ``machines`` directory under the artifact-cache root
(:func:`load_user_machines`) lets ``vebo-reorder machines add`` install a
file once and have every later invocation register it automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.errors import CalibrationError, SimulationError
from repro.machine.cost import CostModel, DEFAULT_COST_MODEL
from repro.machine.numa import NUMATopology, PAPER_MACHINE

__all__ = [
    "BUILTIN_MACHINES",
    "DEFAULT_MACHINE",
    "MACHINES",
    "MachineModel",
    "available_machines",
    "get_machine",
    "load_machine",
    "load_user_machines",
    "machine_from_dict",
    "machine_to_dict",
    "register_machine",
    "resolve_machine",
    "save_machine",
    "user_machines_dir",
]


@dataclass(frozen=True)
class MachineModel:
    """A named machine personality: topology + cost-model derivation knobs.

    The default field values are the paper machine's, so
    ``MachineModel(name=...)`` with no overrides derives exactly
    :data:`~repro.machine.cost.DEFAULT_COST_MODEL` and
    :data:`~repro.machine.numa.PAPER_MACHINE`.
    """

    name: str
    description: str = ""
    num_sockets: int = PAPER_MACHINE.num_sockets
    threads_per_socket: int = PAPER_MACHINE.threads_per_socket
    #: Multiplier on the cost model's miss-fraction terms (deeper / slower
    #: memory hierarchies -> larger penalty).
    miss_penalty: float = DEFAULT_COST_MODEL.miss_penalty
    #: NUMA remote-access slowdown; 1.0 on single-socket machines, where
    #: a remote access is impossible.
    remote_factor: float = DEFAULT_COST_MODEL.remote_factor
    #: Uniform scale on the per-operation time coefficients (relative core
    #: speed: < 1 is faster than the paper's 2.6 GHz Ivy Bridge EX).
    time_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise SimulationError("machine model needs a non-empty name")
        if self.num_sockets <= 0 or self.threads_per_socket <= 0:
            raise SimulationError("machine topology dimensions must be positive")
        if self.miss_penalty < 0:
            raise SimulationError("miss_penalty must be non-negative")
        if self.remote_factor < 1.0:
            raise SimulationError("remote_factor must be >= 1")
        if self.time_scale <= 0:
            raise SimulationError("time_scale must be positive")

    # ------------------------------------------------------------------
    @property
    def topology(self) -> NUMATopology:
        return NUMATopology(
            num_sockets=self.num_sockets,
            threads_per_socket=self.threads_per_socket,
        )

    @property
    def num_threads(self) -> int:
        return self.num_sockets * self.threads_per_socket

    def derive_cost_model(self, base: CostModel = DEFAULT_COST_MODEL) -> CostModel:
        """The cost model this machine prices with: ``base``'s per-op
        coefficients scaled by ``time_scale`` (1.0 skips the multiply
        entirely, keeping the floats bitwise), with this machine's
        ``miss_penalty`` and ``remote_factor`` in place of the base's.
        Pricing derives from the default ``base``
        (:meth:`~repro.frameworks.personality.FrameworkModel.price`); the
        calibration fit passes the coefficient set it holds fixed.
        """
        model = replace(
            base, miss_penalty=self.miss_penalty, remote_factor=self.remote_factor
        )
        if self.time_scale != 1.0:
            model = model.scaled(self.time_scale)
        return model

    def with_threads_per_socket(self, threads_per_socket: int) -> "MachineModel":
        """A variant with a different thread count per socket — the knob
        the speedup-vs-threads curves turn (Section V's scaling plots)."""
        if threads_per_socket == self.threads_per_socket:
            return self
        return replace(
            self,
            name=f"{self.name}@{self.num_sockets * threads_per_socket}t",
            threads_per_socket=int(threads_per_socket),
        )


#: name -> machine personality; extended via :func:`register_machine`.
MACHINES: dict[str, MachineModel] = {}

#: The machine every result is priced on unless told otherwise — the
#: paper's testbed, whose derived coefficients are bitwise the historical
#: defaults.
DEFAULT_MACHINE = "paper-xeon"


def register_machine(model: MachineModel) -> MachineModel:
    """Register ``model`` under its name (used by sweeps and the CLI)."""
    if model.name in MACHINES:
        raise SimulationError(f"machine model {model.name!r} already registered")
    MACHINES[model.name] = model
    return model


def available_machines() -> list[str]:
    return sorted(MACHINES)


def get_machine(name: str) -> MachineModel:
    try:
        return MACHINES[name]
    except KeyError:
        raise SimulationError(
            f"unknown machine model {name!r}; registered: {available_machines()}"
        ) from None


def resolve_machine(machine: "str | MachineModel | None") -> MachineModel:
    """Accept a registry name, a model instance, or ``None`` (default)."""
    if machine is None:
        return MACHINES[DEFAULT_MACHINE]
    if isinstance(machine, MachineModel):
        return machine
    return get_machine(machine)


#: The paper's 4-socket Xeon E7-4860 v2 (Section IV): every knob at the
#: historical default, so this machine prices bit-identically to code
#: that predates the machine layer.
register_machine(MachineModel(
    name=DEFAULT_MACHINE,
    description="4-socket Xeon E7-4860 v2, 12 cores/socket (the paper's testbed)",
))

#: A single-socket laptop: fewer, faster cores; no remote NUMA accesses
#: at all (remote_factor 1.0 neutralizes every NUMA term), shallower
#: memory hierarchy.
register_machine(MachineModel(
    name="laptop",
    description="single-socket 8-core laptop, no NUMA, faster cores",
    num_sockets=1,
    threads_per_socket=8,
    miss_penalty=3.0,
    remote_factor=1.0,
    time_scale=0.7,
))

#: A big NUMA box: twice the paper's sockets, more threads per socket,
#: but a steeper remote-access cliff and a pricier miss path — the
#: scenario where NUMA-aware placement (Polymer, GraphGrind) should pull
#: furthest ahead of interleaved layouts (Ligra).
register_machine(MachineModel(
    name="big-numa",
    description="8-socket NUMA box, 16 threads/socket, steep remote penalty",
    num_sockets=8,
    threads_per_socket=16,
    miss_penalty=5.0,
    remote_factor=2.5,
    time_scale=0.9,
))

#: The built-in personalities above; user machines loaded from disk are
#: registered on top and can be told apart (``machines list`` marks them).
BUILTIN_MACHINES = frozenset(MACHINES)


# ----------------------------------------------------------------------
# JSON personality files: save/load/add for user-defined machines
# ----------------------------------------------------------------------

_MACHINE_FIELDS = tuple(f.name for f in fields(MachineModel))


def machine_to_dict(model: MachineModel) -> dict:
    """Plain-JSON encoding of a machine (exactly the dataclass fields)."""
    return {
        "name": model.name,
        "description": model.description,
        "num_sockets": int(model.num_sockets),
        "threads_per_socket": int(model.threads_per_socket),
        "miss_penalty": float(model.miss_penalty),
        "remote_factor": float(model.remote_factor),
        "time_scale": float(model.time_scale),
    }


def machine_from_dict(data: dict) -> MachineModel:
    """Invert :func:`machine_to_dict`, strictly.

    Unknown keys are rejected (a typoed knob silently keeping its default
    is exactly the failure mode a personality file must not have), and
    every value goes through :class:`MachineModel`'s own validation.
    """
    if not isinstance(data, dict):
        raise CalibrationError(
            f"machine personality must be a JSON object, got {type(data).__name__}"
        )
    unknown = sorted(set(data) - set(_MACHINE_FIELDS))
    if unknown:
        raise CalibrationError(
            f"unknown machine personality field(s) {unknown}; "
            f"allowed: {sorted(_MACHINE_FIELDS)}"
        )
    if "name" not in data:
        raise CalibrationError("machine personality needs a 'name' field")
    try:
        kwargs = {
            "name": str(data["name"]),
            "description": str(data.get("description", "")),
        }
        for field_name in ("num_sockets", "threads_per_socket"):
            if field_name in data:
                kwargs[field_name] = int(data[field_name])
        for field_name in ("miss_penalty", "remote_factor", "time_scale"):
            if field_name in data:
                kwargs[field_name] = float(data[field_name])
        return MachineModel(**kwargs)
    except CalibrationError:
        raise
    except (TypeError, ValueError, SimulationError) as exc:
        # SimulationError covers MachineModel's own validation (empty
        # name, non-positive topology, invalid knob ranges).
        raise CalibrationError(f"malformed machine personality: {exc}") from exc


def save_machine(model: MachineModel, path) -> Path:
    """Write a machine as a JSON personality file.

    The rendering is canonical (sorted keys, fixed indentation, trailing
    newline) and floats use JSON's shortest-exact representation, so
    ``save -> load -> save`` reproduces the file byte for byte.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    blob = json.dumps(machine_to_dict(model), sort_keys=True, indent=2) + "\n"
    path.write_text(blob, encoding="utf-8")
    return path


def load_machine(path) -> MachineModel:
    """Read and validate a JSON personality file (no registration)."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CalibrationError(f"cannot read machine file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CalibrationError(f"machine file {path} is not valid JSON: {exc}") from exc
    return machine_from_dict(data)


def user_machines_dir(cache_root) -> Path:
    """The directory ``machines add`` installs personality files into."""
    return Path(cache_root) / "machines"


def load_user_machines(cache_root) -> list[MachineModel]:
    """Register every ``*.json`` personality under the cache's machines
    directory; returns the models newly registered.

    Idempotent: a file whose machine is already registered with identical
    parameters is skipped, so repeated CLI invocations (and multiple
    calls within one process) are safe.  A *conflicting* name — a file
    redefining a built-in, or two files disagreeing — raises, because
    silently picking one would change what every priced number means.
    """
    folder = user_machines_dir(cache_root)
    if not folder.is_dir():
        return []
    loaded: list[MachineModel] = []
    for path in sorted(folder.glob("*.json")):
        model = load_machine(path)
        existing = MACHINES.get(model.name)
        if existing is not None:
            if existing == model:
                continue
            raise CalibrationError(
                f"machine file {path} redefines {model.name!r} with "
                "different parameters; rename the machine or remove the file"
            )
        loaded.append(register_machine(model))
    return loaded
