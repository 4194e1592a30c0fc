"""Machine-model registry: derivation, defaults, and pricing behavior."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.frameworks.personality import FRAMEWORKS
from repro.machine.cost import DEFAULT_COST_MODEL
from repro.machine.models import (
    DEFAULT_MACHINE,
    MACHINES,
    MachineModel,
    available_machines,
    get_machine,
    register_machine,
    resolve_machine,
)
from repro.machine.numa import PAPER_MACHINE


class TestRegistry:
    def test_builtins_present(self):
        assert {"paper-xeon", "laptop", "big-numa"} <= set(MACHINES)
        assert DEFAULT_MACHINE == "paper-xeon"
        assert available_machines() == sorted(MACHINES)

    def test_get_unknown_raises(self):
        with pytest.raises(SimulationError, match="unknown machine"):
            get_machine("abacus")

    def test_register_duplicate_raises(self):
        with pytest.raises(SimulationError, match="already registered"):
            register_machine(MachineModel(name=DEFAULT_MACHINE))

    def test_resolve_accepts_name_instance_and_none(self):
        m = get_machine("laptop")
        assert resolve_machine("laptop") is m
        assert resolve_machine(m) is m
        assert resolve_machine(None) is MACHINES[DEFAULT_MACHINE]


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "x", "num_sockets": 0},
        {"name": "x", "threads_per_socket": -1},
        {"name": "x", "miss_penalty": -0.1},
        {"name": "x", "remote_factor": 0.9},
        {"name": "x", "time_scale": 0.0},
    ])
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(SimulationError):
            MachineModel(**kwargs)


class TestDerivation:
    def test_default_machine_is_the_paper_machine_bit_for_bit(self):
        m = get_machine(DEFAULT_MACHINE)
        assert m.topology == PAPER_MACHINE
        derived = m.derive_cost_model()
        assert derived == DEFAULT_COST_MODEL
        for field in ("t_edge", "t_dst", "t_src", "t_vertex",
                      "miss_penalty", "remote_factor"):
            assert getattr(derived, field) == getattr(DEFAULT_COST_MODEL, field)

    def test_pricing_on_laptop_uses_its_topology(self, monkeypatch):
        """Pricing takes the topology from the machine: on ``laptop``
        Polymer's scheduler fills one socket of 8 threads, every chunk
        homed on socket 0, and Ligra's Cilk schedule runs 8 workers."""
        from repro.algorithms import pagerank
        from repro.frameworks import personality
        from repro.graph import generators as gen

        trace = pagerank(gen.zipf_powerlaw_graph(300, seed=3),
                         num_iterations=1, num_partitions=16).trace
        seen = {}

        def spy(name):
            original = getattr(personality, name)

            def wrapped(costs, *args, **kwargs):
                seen[name] = args
                return original(costs, *args, **kwargs)
            monkeypatch.setattr(personality, name, wrapped)

        spy("static_numa_schedule")
        spy("cilk_recursive_schedule")
        laptop = get_machine("laptop")
        FRAMEWORKS["polymer"].price(trace, (0.2, 0.1), laptop)
        FRAMEWORKS["ligra"].price(trace, (0.2, 0.1), laptop)
        homes, sockets, threads = seen["static_numa_schedule"]
        assert (sockets, threads) == (1, 8)
        assert homes.shape == (16,) and not homes.any()
        assert seen["cilk_recursive_schedule"] == (8,)

    def test_time_scale_scales_all_coefficients(self):
        m = MachineModel(name="half", time_scale=0.5)
        derived = m.derive_cost_model()
        assert derived.t_edge == DEFAULT_COST_MODEL.t_edge * 0.5
        assert derived.t_dst == DEFAULT_COST_MODEL.t_dst * 0.5

    def test_with_threads_per_socket(self):
        m = get_machine(DEFAULT_MACHINE)
        assert m.with_threads_per_socket(12) is m
        v = m.with_threads_per_socket(4)
        assert v.threads_per_socket == 4
        assert v.num_threads == 16
        assert v.name != m.name  # variants are distinguishable in results


class TestPricingAcrossMachines:
    @pytest.fixture(scope="class")
    def priced(self):
        from repro import store
        from repro.experiments.runner import execute, prepare, price

        graph = store.load_graph("twitter", scale=0.05)
        prep = prepare(graph, "original", 384)
        execution = execute(graph, "PR", prepared=prep, num_iterations=2)
        return graph, prep, execution, price

    def test_machines_price_the_same_trace_differently(self, priced):
        graph, prep, execution, price = priced
        seconds = {
            name: price(execution, graph, "ligra", prep, machine=name).seconds
            for name in ("paper-xeon", "laptop", "big-numa")
        }
        assert len(set(seconds.values())) == 3
        # 8 threads must not beat 48 threads on the same per-op speed class
        assert seconds["laptop"] > seconds["big-numa"]

    def test_default_machine_pricing_matches_machineless_call(self, priced):
        graph, prep, execution, price = priced
        a = price(execution, graph, "polymer", prep)
        b = price(execution, graph, "polymer", prep, machine=DEFAULT_MACHINE)
        assert a.seconds == b.seconds
        assert np.array_equal(a.estimate.per_iteration, b.estimate.per_iteration)
        assert a.machine == b.machine == DEFAULT_MACHINE

    def test_result_carries_machine_tag_and_roundtrips(self, priced):
        graph, prep, execution, price = priced
        r = price(execution, graph, "ligra", prep, machine="laptop")
        assert r.machine == "laptop"
        d = r.to_dict()
        assert d["machine"] == "laptop"
        from repro.experiments.runner import ExperimentResult

        back = ExperimentResult.from_dict(d)
        assert back.machine == "laptop"
        assert back.seconds == r.seconds

    def test_pre_machine_payload_defaults_to_paper_machine(self, priced):
        graph, prep, execution, price = priced
        d = price(execution, graph, "ligra", prep).to_dict()
        d.pop("machine")
        from repro.experiments.runner import ExperimentResult

        assert ExperimentResult.from_dict(d).machine == DEFAULT_MACHINE

    def test_thread_scaling_curve_monotone(self, priced):
        graph, prep, execution, price = priced
        from repro.metrics import thread_scaling_curve

        curve = thread_scaling_curve(
            execution, graph, "polymer", prep, thread_counts=(1, 4, 12)
        )
        assert set(curve) == {4, 16, 48}  # 4 sockets x per-socket counts
        assert curve[4] >= curve[16] >= curve[48]
        assert curve[4] > curve[48]
