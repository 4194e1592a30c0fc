"""Engine layouts live exactly as long as their graph.

``vectorized._LAYOUTS`` keys each graph's layouts weakly.  A layout that
held its graph would keep its own key alive, and with it every derived
array and its record memo, for the process lifetime: a sweep would hold
the engine state of every graph it ever prepared, and of every transpose
that CC and BC build.  These tests drop every reference to a graph and
check that its layouts go with it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.algorithms import ALGORITHMS
from repro.frameworks import vectorized as vec_mod
from repro.graph import generators as gen


@pytest.fixture
def layouts_built(monkeypatch):
    """Weak references to every ``_SharedLayout`` built while the test runs."""
    built: list[weakref.ref] = []
    real = vec_mod._SharedLayout

    class Tracked(real):
        def __init__(self, graph, boundaries):
            super().__init__(graph, boundaries)
            built.append(weakref.ref(self))

    monkeypatch.setattr(vec_mod, "_SharedLayout", Tracked)
    return built


@pytest.mark.parametrize("backend, seed", [("vectorized", 11), ("parallel", 12)])
def test_layouts_die_with_their_graph(layouts_built, backend, seed):
    graph = gen.zipf_powerlaw_graph(600, s=1.2, max_degree=30, seed=seed, name="life")
    for algo in ("CC", "BC", "PR"):
        result = ALGORITHMS[algo](graph, num_partitions=8, backend=backend)
        assert result.trace.records
    # CC and BC build layouts for the transpose as well.
    assert len(layouts_built) >= 2
    assert graph in vec_mod._LAYOUTS
    graph_ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert graph_ref() is None
    assert all(ref() is None for ref in layouts_built)
    # The result's trace keeps nothing of the engine alive.
    assert result.trace.records


def test_sweep_leaves_no_layout_alive(layouts_built, tmp_path):
    from repro.experiments import run_matrix
    from repro.store import ArtifactCache

    results = run_matrix(
        ("twitter", "usaroad"), ("CC", "BC"), ("ligra",), ("original", "vebo"),
        params={"scale": 0.05}, jobs=1, cache=ArtifactCache(tmp_path / "cache"),
    )
    assert len(results) == 8
    assert layouts_built
    gc.collect()
    alive = [ref() for ref in layouts_built if ref() is not None]
    assert alive == []
