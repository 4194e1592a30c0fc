"""Framework personalities: Ligra, Polymer and GraphGrind as pricing models.

Section IV reduces the three C++ systems to a handful of design axes —
scheduling policy, partition count, NUMA awareness and locality
optimization.  A :class:`FrameworkModel` encodes those axes and converts an
algorithm's :class:`~repro.frameworks.trace.WorkTrace` into seconds using
the machine model:

* per-iteration, per-partition costs come from the
  :class:`~repro.machine.cost.CostModel` applied to the recorded work
  counters, modulated by the *measured* locality of the graph layout
  (so vertex orderings genuinely change the price);
* the per-iteration loop completion time is the scheduler's makespan over
  those costs (static for Polymer, Cilk-splitting for Ligra, hierarchical
  static-over-sockets / dynamic-within for GraphGrind);
* NUMA-aware systems place each partition's data on its home socket —
  remote misses arise only when a thread processes another socket's
  partition; Ligra's unpartitioned arrays are interleaved so a constant
  fraction of misses is remote.

The personalities differ exactly where the paper says the systems differ,
and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import SimulationError
from repro.frameworks.trace import WorkTrace
from repro.graph.csr import Graph
from repro.machine.cost import CostModel, DEFAULT_COST_MODEL, PartitionWork
from repro.machine.numa import NUMATopology, PAPER_MACHINE
from repro.machine.schedule import (
    cilk_recursive_schedule,
    greedy_dynamic_schedule,
    hierarchical_numa_schedule,
    static_block_schedule,
    static_numa_schedule,
)

__all__ = [
    "ACCOUNTING_CHUNKS",
    "FrameworkModel",
    "RuntimeEstimate",
    "LIGRA",
    "POLYMER",
    "GRAPHGRIND",
    "FRAMEWORKS",
]


@dataclass(frozen=True)
class RuntimeEstimate:
    """Priced execution of one algorithm run under one framework."""

    seconds: float
    per_iteration: np.ndarray
    framework: str
    algorithm: str
    graph_name: str
    num_partitions: int
    details: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        """JSON-representable encoding; :meth:`from_dict` inverts it.

        The round-trip is lossless for everything the personalities emit:
        ``json`` renders Python floats with ``repr`` (shortest exact
        representation), so the total, the per-iteration array and the
        scalar details survive bit-identically — which is what lets a
        persisted sweep rebuild tables byte-identical to a fresh run.
        Non-scalar ``details`` entries (arrays, nested dicts) are *not*
        serialized; keep diagnostics that must survive persistence scalar.
        """
        return {
            "seconds": float(self.seconds),
            "per_iteration": [float(v) for v in self.per_iteration],
            "framework": self.framework,
            "algorithm": self.algorithm,
            "graph_name": self.graph_name,
            "num_partitions": int(self.num_partitions),
            "details": {
                str(k): (v.item() if isinstance(v, np.generic) else v)
                for k, v in self.details.items()
                if isinstance(v, (bool, int, float, str, np.generic)) or v is None
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RuntimeEstimate":
        try:
            return cls(
                seconds=float(data["seconds"]),
                per_iteration=np.asarray(data["per_iteration"], dtype=np.float64),
                framework=str(data["framework"]),
                algorithm=str(data["algorithm"]),
                graph_name=str(data["graph_name"]),
                num_partitions=int(data["num_partitions"]),
                details=dict(data.get("details", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SimulationError(f"malformed RuntimeEstimate payload: {exc}") from exc


@dataclass(frozen=True)
class FrameworkModel:
    """One framework's pricing configuration."""

    name: str
    scheduler: str           # "cilk" | "static" | "static-hier" | "numa-hier" | "dynamic"
    default_partitions: int  # accounting-chunk count fed to the trace
    numa_partitions: int     # partitions the real system materializes
    numa_aware: bool                  # partition data homed on sockets?
    locality_optimized: bool          # system exploits COO/Hilbert locality
    topology: NUMATopology = PAPER_MACHINE
    cost_model: CostModel = DEFAULT_COST_MODEL
    interleaved_remote_fraction: float = 0.75  # non-NUMA-aware remote share
    steal_overhead: float = 2.0e-7
    # Measured miss fractions are blended toward a floor before pricing:
    # eff = miss_floor + miss_scale * measured.  The paper's graphs exceed
    # the LLC by two orders of magnitude, so *every* layout misses heavily
    # and layout differences move the miss rate by tens of percent, not
    # 10x; the blend reproduces that compression at laptop scale, keeping
    # load balance (not locality) the first-order effect for statically
    # scheduled systems — the paper's central claim.
    miss_floor: float = 0.35
    miss_scale: float = 0.5

    def __post_init__(self) -> None:
        if self.scheduler not in ("cilk", "static", "static-hier", "numa-hier", "dynamic"):
            raise SimulationError(f"unknown scheduler {self.scheduler!r}")

    # ------------------------------------------------------------------
    def on_machine(self, machine) -> "FrameworkModel":
        """This personality configured for a :class:`~repro.machine.models.
        MachineModel`: the machine supplies the topology and the
        machine-owned cost knobs (miss penalty, remote factor, core-speed
        scale on this personality's own per-op coefficients); every
        framework design axis (scheduler, NUMA awareness, locality
        optimization) is untouched.

        The **default** machine is a strict no-op — ``self`` comes back
        untouched, whatever this personality's cost model is — so pricing
        with ``machine=None`` / ``paper-xeon`` is byte-identical to the
        pre-machine-layer path even for custom personalities that carry
        tuned coefficients.
        """
        from repro.machine.models import DEFAULT_MACHINE, MACHINES

        if machine == MACHINES[DEFAULT_MACHINE]:
            return self
        topology = machine.topology
        cost_model = machine.derive_cost_model(self.cost_model)
        if topology == self.topology and cost_model == self.cost_model:
            return self
        return replace(self, topology=topology, cost_model=cost_model)

    # ------------------------------------------------------------------
    def price(
        self,
        trace: WorkTrace,
        graph: Graph,
        locality: tuple[float, float],
    ) -> RuntimeEstimate:
        """Convert a work trace into seconds.

        ``locality`` is the (src, dst) miss-fraction pair of the layout
        under the traversal this framework runs — the runner measures it
        once per (graph, ordering, edge order) and prices many algorithms
        with it.
        """
        src_miss = min(1.0, self.miss_floor + self.miss_scale * locality[0])
        dst_miss = min(1.0, self.miss_floor + self.miss_scale * locality[1])
        if not self.locality_optimized:
            # Ligra's COO/edge traversal does not reorder edges for reuse;
            # model as a higher effective miss fraction on the same layout.
            src_miss = min(1.0, src_miss * 1.25 + 0.05)
            dst_miss = min(1.0, dst_miss * 1.25 + 0.05)
        topo = self.topology
        p = trace.num_partitions
        homes = topo.partition_home_sockets(p)

        per_iter = np.zeros(len(trace.records), dtype=np.float64)
        # Replayed records price identically: the vectorized engine appends
        # the *same* immutable record object for every dense step of an
        # iterative algorithm (PR prices one dense pull, not ten), so memo
        # on object identity.  Reference traces hold distinct objects and
        # take the memo-miss path unchanged.  The memo is per price() call,
        # which also keeps ids stable (records are alive in the trace).
        memo: dict[int, float] = {}
        for i, rec in enumerate(trace.records):
            cached = memo.get(id(rec))
            if cached is not None:
                per_iter[i] = cached
                continue
            if rec.kind == "vertexmap":
                per_iter[i] = self._price_vertexmap(rec, homes)
            else:
                # Prefer the record's own measured stream locality (it sees
                # frontier-dependent effects a layout-level measurement
                # cannot); dense pull steps in locality-optimized systems
                # traverse the tuned COO order instead, so the layout-level
                # pair still applies there.
                rec_src, rec_dst = src_miss, dst_miss
                if rec.src_miss >= 0.0 and not (
                    self.locality_optimized and rec.density.value == "dense"
                ):
                    rec_src = min(1.0, self.miss_floor + self.miss_scale * rec.src_miss)
                    rec_dst = min(1.0, self.miss_floor + self.miss_scale * rec.dst_miss)
                per_iter[i] = self._price_edgemap(rec, rec_src, rec_dst, homes)
            memo[id(rec)] = per_iter[i]
        return RuntimeEstimate(
            seconds=float(per_iter.sum()),
            per_iteration=per_iter,
            framework=self.name,
            algorithm=trace.algorithm,
            graph_name=trace.graph_name,
            num_partitions=p,
            details={"src_miss": src_miss, "dst_miss": dst_miss},
        )

    # ------------------------------------------------------------------
    def partition_costs(
        self, rec, src_miss: float, dst_miss: float, homes: np.ndarray
    ) -> np.ndarray:
        """Per-partition seconds for one edgemap record (the Figure 1/4/6
        per-partition series)."""
        remote = self._remote_fraction(homes)
        work = PartitionWork(
            edges=rec.part_edges.astype(np.float64),
            unique_dsts=rec.part_dsts.astype(np.float64),
            unique_srcs=rec.part_srcs.astype(np.float64),
            vertices=np.zeros(rec.part_edges.size, dtype=np.float64),
            src_miss_fraction=src_miss,
            dst_miss_fraction=dst_miss,
        )
        return self.cost_model.partition_seconds(work, remote_fraction=remote)

    def _remote_fraction(self, homes: np.ndarray) -> np.ndarray:
        if self.numa_aware:
            # Partition processed by its home socket: remote only via
            # sources living in other partitions; charge a small constant.
            return np.full(homes.size, 0.15)
        return np.full(homes.size, self.interleaved_remote_fraction)

    def _price_edgemap(
        self, rec, src_miss: float, dst_miss: float, homes: np.ndarray
    ) -> float:
        costs = self.partition_costs(rec, src_miss, dst_miss, homes)
        return self._schedule(costs, homes)

    def _price_vertexmap(self, rec, homes: np.ndarray) -> float:
        # Vertexmap iterations are spread over all threads regardless of
        # partition ownership; non-NUMA-local chunks pay remote bandwidth
        # (the Table V vertexmap effect).  Chunk = partition here.
        if self.numa_aware:
            # A chunk is NUMA-local iff the thread's socket == chunk home;
            # with equal vertex counts per chunk (VEBO) this is near 1.
            counts = rec.part_vertices.astype(np.float64)
            total = counts.sum()
            if total == 0:
                return 0.0
            # Imbalance in chunk sizes forces threads across sockets:
            # remote share grows with the deviation from the mean chunk.
            mean = total / counts.size
            deviation = np.abs(counts - mean).sum() / (2.0 * total)
            remote = 0.05 + 0.9 * deviation
        else:
            remote = self.interleaved_remote_fraction
        costs = self.cost_model.vertexmap_seconds(
            rec.part_vertices.astype(np.float64), remote_fraction=remote
        )
        return self._schedule(costs, homes)

    def _schedule(self, costs: np.ndarray, homes: np.ndarray) -> float:
        topo = self.topology
        if self.scheduler == "static":
            return static_block_schedule(costs, topo.num_threads).makespan
        if self.scheduler == "dynamic":
            return greedy_dynamic_schedule(costs, topo.num_threads).makespan
        if self.scheduler == "cilk":
            return cilk_recursive_schedule(
                costs, topo.num_threads, steal_overhead=self.steal_overhead
            ).makespan
        if self.scheduler == "static-hier":
            return static_numa_schedule(
                costs, homes, topo.num_sockets, topo.threads_per_socket
            ).makespan
        return hierarchical_numa_schedule(
            costs, homes, topo.num_sockets, topo.threads_per_socket
        ).makespan


#: All personalities account work at the same 384-chunk granularity (48
#: threads x 8 chunks) so one trace can be priced under any of them; each
#: model maps chunks to threads per its own policy.  384 is also
#: GraphGrind's recommended partition count.
ACCOUNTING_CHUNKS = 384

#: Ligra: Cilk dynamic scheduling, no explicit partitioning (Cilk's
#: recursive range splits align with the accounting chunks — the implicit
#: partitioning of Section V-A), no NUMA placement, no locality pass.
LIGRA = FrameworkModel(
    name="ligra",
    scheduler="cilk",
    default_partitions=ACCOUNTING_CHUNKS,
    numa_partitions=1,
    numa_aware=False,
    locality_optimized=False,
)

#: Polymer: one NUMA partition per socket, static binding at both levels
#: (sockets and the threads inside each socket), NUMA-aware layout.
POLYMER = FrameworkModel(
    name="polymer",
    scheduler="static-hier",
    default_partitions=ACCOUNTING_CHUNKS,
    numa_partitions=4,
    numa_aware=True,
    locality_optimized=True,
)

#: GraphGrind: 384 partitions, static across sockets + dynamic within,
#: NUMA-aware, Hilbert/CSR-ordered COO for dense frontiers.
GRAPHGRIND = FrameworkModel(
    name="graphgrind",
    scheduler="numa-hier",
    default_partitions=ACCOUNTING_CHUNKS,
    numa_partitions=384,
    numa_aware=True,
    locality_optimized=True,
)

FRAMEWORKS = {"ligra": LIGRA, "polymer": POLYMER, "graphgrind": GRAPHGRIND}
