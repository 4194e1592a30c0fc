"""Concurrency guarantees: lines never interleave under a thread pool, a
process-pool sweep's per-worker files merge losslessly, and timestamps
stay monotonic per thread."""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import obs
from repro.experiments import ResultsStore, expand_matrix, run_cells, run_matrix
from repro.obs import core
from repro.obs.schema import validate_events
from repro.store import ArtifactCache

THREADS = 8
SPANS_PER_THREAD = 40


class TestThreadConcurrency:
    def test_parallel_span_emission_is_lossless(self, obs_dir):
        def work(worker: int) -> None:
            for i in range(SPANS_PER_THREAD):
                with obs.context(worker=worker):
                    with obs.span("t.outer", cat="test", i=i):
                        with obs.span("t.inner", cat="test"):
                            obs.event("t.tick", i=i)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(work, range(THREADS)))

        # Every line parsed (read_events drops unparsable lines; count
        # proves none were mangled by interleaved writes).
        events = obs.read_events(obs_dir)
        per_thread = 5 * SPANS_PER_THREAD  # 2 B + 2 E + 1 I per iteration
        assert len([e for e in events if e["name"].startswith("t.")]) == (
            THREADS * per_thread
        )
        assert validate_events(events) == []

    def test_timestamps_monotonic_per_thread(self, obs_dir):
        def work(worker: int) -> None:
            for i in range(SPANS_PER_THREAD):
                obs.event("tick", worker=worker, i=i)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(work, range(THREADS)))
        by_tid: dict[int, list[int]] = {}
        for evt in obs.read_events(obs_dir):
            by_tid.setdefault(evt["tid"], []).append(evt["ts"])
        assert len(by_tid) >= 2  # the pool really did run on several threads
        for ts in by_tid.values():
            assert ts == sorted(ts)

    def test_context_is_thread_local(self, obs_dir):
        def work(worker: int) -> None:
            with obs.context(worker=worker):
                for i in range(SPANS_PER_THREAD):
                    obs.event("ctx.tick", i=i)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(work, range(THREADS)))
        for evt in obs.read_events(obs_dir):
            if evt["name"] != "ctx.tick":
                continue
            # Each event carries exactly its own thread's context frame —
            # never a sibling's.
            assert set(evt["args"]) == {"worker", "i"}


def earlier_run_file(obs_dir):
    """The event file of an earlier process, left in the obs directory."""
    path = obs_dir / "events-999999999.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    evt = {"v": obs.EVENT_VERSION, "seq": 1, "ts": 1, "pid": 999999999,
           "tid": 1, "ph": "I", "name": "earlier", "cat": ""}
    path.write_text(json.dumps(evt) + "\n", encoding="utf-8")
    return path


class TestProcessPoolSweep:
    def test_worker_files_merge_losslessly(self, obs_dir, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        store = ResultsStore(tmp_path / "results.jsonl")
        cells = expand_matrix(
            ["powerlaw", "twitter"], ["PR", "BFS"], ["ligra"],
            ["original", "vebo"], params={"scale": 0.02},
            algo_kwargs={"PR": {"num_iterations": 2}},
        )
        earlier = earlier_run_file(obs_dir)
        before = earlier.read_bytes()
        run_cells(cells, jobs=2, store=store, resume=True, cache=cache)

        # The sweep wrapper merged exactly its workers' files into the
        # orchestrator's own: one file remains beside the earlier run's,
        # which the sweep left as it was.
        files = sorted(obs_dir.glob("events-*.jsonl"))
        assert sorted(f.name for f in files) == sorted(
            [earlier.name, obs.events_path().name])
        assert earlier.read_bytes() == before

        events = obs.read_events(obs.events_path())
        assert validate_events(events) == []
        writers = {e["args"]["writer"] for e in events if e["name"] == "process_name"}
        assert len(writers) >= 2  # orchestrator + at least one worker

        # Lossless: every cell's lifecycle is present.
        statuses = [
            e["args"]["status"] for e in events if e["name"] == "sweep.cell"
        ]
        assert statuses.count("queued") == len(cells)
        assert statuses.count("executed") + statuses.count("replayed") == len(cells)
        # Worker-side execution spans survived the merge too.
        assert any(
            e["name"] == "run.execute" and e["pid"] != os.getpid()
            for e in events
        )

    def test_inline_sweep_merges_nothing(self, obs_dir, tmp_path):
        earlier = earlier_run_file(obs_dir)
        before = earlier.read_bytes()
        cells = expand_matrix(
            ["powerlaw"], ["PR"], ["ligra"], ["original", "vebo"],
            params={"scale": 0.02}, algo_kwargs={"PR": {"num_iterations": 2}},
        )
        run_cells(cells, jobs=1, cache=ArtifactCache(tmp_path / "cache"))
        assert earlier.read_bytes() == before
        assert "earlier" not in {e["name"] for e in obs.read_events(obs.events_path())}


class TestSweepOnACacheInstance:
    """A sweep given a cache *instance* logs under that cache, whatever
    the default cache root is: no environment variable carries the
    instance's root, so the orchestrator points its own sink there for
    the sweep (as its workers do) and then back."""

    @pytest.fixture
    def default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.delenv(core.OBS_DIR_ENV_VAR, raising=False)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("REPRO_CACHE_OFF", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        core.reset()
        yield tmp_path / "xdg" / "repro-vebo"
        core.reset()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_events_land_under_the_instance_root(self, default_root, tmp_path, jobs):
        cache = ArtifactCache(tmp_path / "inst")
        results = run_matrix(
            ["powerlaw"], ["PR"], ["ligra"], ["original", "vebo"],
            params={"scale": 0.02}, algo_kwargs={"PR": {"num_iterations": 2}},
            cache=cache, jobs=jobs,
        )
        assert len(results) == 2
        (events_file,) = (tmp_path / "inst" / "obs").glob("events-*.jsonl")
        assert not list(default_root.glob("**/events-*.jsonl"))
        events = obs.read_events(events_file)
        assert validate_events(events) == []
        statuses = [e["args"]["status"] for e in events if e["name"] == "sweep.cell"]
        assert statuses.count("executed") == 2
        # A pool worker's lines were merged into the one file.
        assert any(e["pid"] != os.getpid() for e in events) == (jobs > 1)
        # The sweep over, the sink resolves the default directory again.
        assert obs.resolve_obs_dir() == default_root / "obs"
