"""Machine model: cost model, schedulers, NUMA, cache/TLB/branch simulators,
and the registry of named machine personalities sweeps re-price under."""

from repro.machine.numa import NUMATopology, PAPER_MACHINE
from repro.machine.cost import CostModel, DEFAULT_COST_MODEL, PartitionWork
from repro.machine.models import (
    BUILTIN_MACHINES,
    DEFAULT_MACHINE,
    MACHINES,
    MachineModel,
    available_machines,
    get_machine,
    load_machine,
    load_user_machines,
    machine_from_dict,
    machine_to_dict,
    register_machine,
    resolve_machine,
    save_machine,
    user_machines_dir,
)
from repro.machine.calibrate import (
    CalibrationResult,
    CalibrationSample,
    fit_machine,
    predict_seconds,
)
from repro.machine.schedule import (
    cilk_recursive_schedule,
    greedy_dynamic_schedule,
    hierarchical_numa_schedule,
    static_block_schedule,
)
from repro.machine.cache import (
    CacheConfig,
    CacheSimulator,
    CacheStats,
    LLC_CONFIG,
    TLB_CONFIG,
)
from repro.machine.branch import BranchStats, simulate_degree_loop
from repro.machine.locality import (
    StreamLocality,
    line_hit_fraction,
    measure_stream,
    sequential_fraction,
)
from repro.machine.counters import InstructionModel, ThreadCounters, mpki_table

__all__ = [
    "NUMATopology",
    "PAPER_MACHINE",
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
    "CalibrationResult",
    "CalibrationSample",
    "fit_machine",
    "predict_seconds",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "PartitionWork",
    "cilk_recursive_schedule",
    "greedy_dynamic_schedule",
    "hierarchical_numa_schedule",
    "static_block_schedule",
    "CacheConfig",
    "CacheSimulator",
    "CacheStats",
    "LLC_CONFIG",
    "TLB_CONFIG",
    "BranchStats",
    "simulate_degree_loop",
    "StreamLocality",
    "line_hit_fraction",
    "measure_stream",
    "sequential_fraction",
    "InstructionModel",
    "ThreadCounters",
    "mpki_table",
]
