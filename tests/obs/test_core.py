"""Span/event/context semantics, the sink's on-disk contract, the metrics
registry, and the progress heartbeat."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.obs import core


def read_own_file(obs_dir):
    path = obs_dir / f"events-{os.getpid()}.jsonl"
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestGate:
    def test_disabled_by_default(self, obs_off):
        assert not obs.enabled()

    def test_env_enables(self, obs_dir):
        assert obs.enabled()

    def test_force_enabled_overrides_env(self, obs_off):
        with obs.force_enabled():
            assert obs.enabled()
        assert not obs.enabled()

    def test_force_disabled_overrides_env(self, obs_dir):
        with obs.force_enabled(False):
            assert not obs.enabled()
        assert obs.enabled()

    def test_disabled_span_is_shared_noop(self, obs_off):
        a = obs.span("x")
        b = obs.span("y", cat="z", k=1)
        assert a is b  # the null CM singleton: zero per-call allocation
        with a:
            pass

    def test_disabled_event_writes_nothing(self, obs_off):
        obs.event("cache.get", cat="store", hit=True)
        with obs.span("store.load_graph"):
            pass
        assert not (obs_off / "obs").exists()


class TestSpansAndEvents:
    def test_span_emits_begin_and_end(self, obs_dir):
        with obs.span("work.outer", cat="test", depth=0):
            with obs.span("work.inner", cat="test", depth=1):
                pass
        events = [e for e in read_own_file(obs_dir) if e["ph"] in ("B", "E")]
        assert [(e["ph"], e["name"]) for e in events] == [
            ("B", "work.outer"), ("B", "work.inner"),
            ("E", "work.inner"), ("E", "work.outer"),
        ]
        assert events[0]["args"] == {"depth": 0}
        assert events[0]["cat"] == "test"

    def test_span_records_exception_and_reraises(self, obs_dir):
        with pytest.raises(ValueError):
            with obs.span("work.fails"):
                raise ValueError("boom")
        end = [e for e in read_own_file(obs_dir) if e["ph"] == "E"][-1]
        assert end["args"] == {"error": "ValueError"}

    def test_instant_event(self, obs_dir):
        obs.event("cache.get", cat="store", kind="graph", hit=False)
        evt = [e for e in read_own_file(obs_dir) if e["ph"] == "I"][-1]
        assert evt["name"] == "cache.get"
        assert evt["args"] == {"kind": "graph", "hit": False}

    def test_seq_gap_free_and_ts_monotonic(self, obs_dir):
        for i in range(20):
            obs.event("tick", i=i)
        events = read_own_file(obs_dir)
        # Gap-free within the process lifetime: consecutive from wherever
        # the per-process counter stood when this file opened.
        seqs = [e["seq"] for e in events]
        assert seqs == list(range(seqs[0], seqs[0] + len(events)))
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_context_attributes_merge(self, obs_dir):
        with obs.context(graph="twitter", ordering="vebo"):
            obs.event("engine.step", step=3)
            with obs.context(ordering="original"):
                obs.event("engine.step", step=4)
            # An event's own args beat any context frame.
            obs.event("engine.step", step=5, graph="override")
        a, b, c = [e for e in read_own_file(obs_dir) if e["name"] == "engine.step"]
        assert a["args"] == {"graph": "twitter", "ordering": "vebo", "step": 3}
        assert b["args"] == {"graph": "twitter", "ordering": "original", "step": 4}
        assert c["args"]["graph"] == "override"

    def test_read_events_orders_and_tolerates_garbage(self, obs_dir):
        obs.event("one")
        obs.event("two")
        core.reset()  # close so we can append garbage safely
        path = obs_dir / f"events-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a kill\n")
            fh.write(json.dumps({"v": 999, "seq": 1}) + "\n")  # foreign version
        events = obs.read_events(obs_dir)
        assert [e["name"] for e in events if e["ph"] == "I"] == ["one", "two"]
        assert all(e["v"] == core.EVENT_VERSION for e in events)

    def test_event_after_torn_tail_is_not_glued_onto_it(self, obs_dir):
        obs.event("one")
        core.reset()
        path = obs_dir / f"events-{os.getpid()}.jsonl"
        with open(path, "ab") as fh:
            fh.write(b'{"v": 1, "seq": 99, "trunca')  # killed mid-write
        obs.event("two")
        names = [e["name"] for e in obs.read_events(obs_dir)]
        assert names.count("process_name") == 2
        assert [n for n in names if n != "process_name"] == ["one", "two"]

    def test_events_dropped_when_nowhere_to_go(self, monkeypatch, tmp_path):
        monkeypatch.setenv(core.OBS_ENV_VAR, "1")
        monkeypatch.delenv(core.OBS_DIR_ENV_VAR, raising=False)
        monkeypatch.setenv("REPRO_CACHE_OFF", "1")
        core.reset()
        try:
            assert core.resolve_obs_dir() is None
            obs.event("nowhere")  # must not raise
            assert obs.read_events() == []
        finally:
            core.reset()

    def test_explicit_dir_beats_env(self, obs_dir, tmp_path):
        explicit = tmp_path / "elsewhere"
        obs.set_obs_dir(explicit)
        try:
            obs.event("here")
            assert core.resolve_obs_dir() == explicit
            assert (explicit / f"events-{os.getpid()}.jsonl").exists()
        finally:
            obs.set_obs_dir(None)

    def test_merge_process_files_appends_dead_pid_lines(self, obs_dir):
        obs.event("mine")
        # Fabricate a file from a pid that cannot be alive (and is not ours).
        dead = obs_dir / "events-999999999.jsonl"
        foreign = {
            "v": core.EVENT_VERSION, "seq": 1, "ts": 1, "pid": 999999999,
            "tid": 1, "ph": "I", "name": "foreign", "cat": "",
        }
        dead.write_text(json.dumps(foreign) + "\n", encoding="utf-8")
        assert obs.merge_process_files(obs_dir) == 1
        assert not dead.exists()
        names = {e["name"] for e in read_own_file(obs_dir)}
        assert {"mine", "foreign"} <= names

    def test_merge_skips_live_pids(self, obs_dir):
        obs.event("mine")
        live = obs_dir / f"events-{os.getpid()}.jsonl"
        assert obs.merge_process_files(obs_dir) == 0
        assert live.exists()


_WRITER = """
import sys, time
from repro import obs
obs.event("child")
print("ready", flush=True)
time.sleep(float(sys.argv[1]))
"""


@pytest.fixture
def live_writer(obs_dir):
    """A live child process that has written its own event file (it
    inherits the obs directory) and sleeps; killed on teardown."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    child = subprocess.Popen(
        [sys.executable, "-c", _WRITER, "60"], env=env,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline().strip() == "ready"
        yield child
    finally:
        child.kill()
        child.wait(timeout=30)


class TestRecycledPids:
    """An event file is live only while its pid is alive with the start
    time its writer recorded; a recycled pid's file is a dead writer's."""

    def test_live_writer_records_its_start_and_is_not_merged(self, obs_dir, live_writer):
        start = core._process_start(live_writer.pid)
        if start is None:
            pytest.skip("process start times are not readable on this host")
        path = obs_dir / f"events-{live_writer.pid}.jsonl"
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert (first["ph"], first["name"]) == ("M", "process_name")
        assert first["args"]["start"] == start
        obs.event("mine")
        assert obs.merge_process_files(obs_dir) == 0
        assert path.exists()

    def test_file_of_a_recycled_pid_is_merged(self, obs_dir, live_writer):
        start = core._process_start(live_writer.pid)
        if start is None:
            pytest.skip("process start times are not readable on this host")
        obs.event("mine")
        # A dead worker's file, named for the pid the live child now holds.
        path = obs_dir / f"events-{live_writer.pid}.jsonl"
        base = {"v": core.EVENT_VERSION, "ts": 1, "pid": live_writer.pid, "tid": 1}
        stale = [
            {**base, "seq": 1, "ph": "M", "name": "process_name", "cat": "meta",
             "args": {"name": "repro", "start": start - 1}},
            {**base, "seq": 2, "ph": "I", "name": "stranded", "cat": ""},
        ]
        path.write_text("".join(json.dumps(e) + "\n" for e in stale), encoding="utf-8")
        assert obs.merge_process_files(obs_dir) == 1
        assert not path.exists()
        assert "stranded" in {e["name"] for e in read_own_file(obs_dir)}

    def test_later_writer_of_a_recycled_pid_keeps_the_file_live(self, obs_dir, live_writer):
        """A process given a dead writer's pid appends to its file; the
        line it adds on opening keeps the file live."""
        start = core._process_start(live_writer.pid)
        if start is None:
            pytest.skip("process start times are not readable on this host")
        path = obs_dir / f"events-{live_writer.pid}.jsonl"
        base = {"v": core.EVENT_VERSION, "ts": 1, "pid": live_writer.pid, "tid": 1}
        dead = {**base, "seq": 1, "ph": "M", "name": "process_name", "cat": "meta",
                "args": {"name": "repro", "start": start - 1}}
        path.write_text(json.dumps(dead) + "\n" + path.read_text(encoding="utf-8"),
                        encoding="utf-8")
        obs.event("mine")
        assert obs.merge_process_files(obs_dir) == 0
        assert path.exists()

    def test_later_writer_of_a_pid_reads_back_after_the_first(self, tmp_path):
        """Both writers of one pid number their events from seq 1; the
        later one reads back after the earlier one and validates clean."""
        from repro.obs.schema import validate_events

        def line(seq, ts, ph, event, **args):
            evt = {"v": core.EVENT_VERSION, "seq": seq, "ts": ts, "pid": 4242,
                   "tid": 1, "ph": ph, "name": event, "cat": ""}
            return {**evt, "args": args} if args else evt

        first = [line(1, 100, "M", "process_name", name="repro", start=100),
                 line(2, 101, "B", "a"), line(3, 102, "E", "a")]
        later = [line(1, 900, "M", "process_name", name="repro", start=900),
                 line(2, 901, "I", "b")]
        path = tmp_path / "events-4242.jsonl"
        path.write_text("".join(json.dumps(e) + "\n" for e in first + later),
                        encoding="utf-8")
        events = obs.read_events(path)
        assert events == first + later
        assert validate_events(events) == []
        assert [(b["name"], e["name"], d) for b, e, d in obs.iter_span_pairs(events)] == [
            ("a", "a", 1)]

    def test_file_without_a_start_keeps_the_bare_pid_rule(self, obs_dir, live_writer):
        path = obs_dir / f"events-{live_writer.pid}.jsonl"
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        for evt in lines:
            evt.get("args", {}).pop("start", None)
        path.write_text("".join(json.dumps(e) + "\n" for e in lines), encoding="utf-8")
        obs.event("mine")
        assert obs.merge_process_files(obs_dir) == 0
        assert path.exists()


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = obs.MetricsRegistry()
        assert reg.counter("hits") == 1.0
        assert reg.counter("hits", 2) == 3.0
        reg.gauge("depth", 7)
        hist = reg.histogram("imbalance")
        for v in (0.5, 1.0, 3.0, 3.5, 9.0):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 3.0}
        assert snap["gauges"] == {"depth": 7.0}
        h = snap["histograms"]["imbalance"]
        assert h["count"] == 5
        assert h["min"] == 0.5 and h["max"] == 9.0
        assert h["mean"] == pytest.approx(17.0 / 5)
        # power-of-two buckets: <1 -> 0, [1,2) -> 1, [2,4) -> 2, [8,16) -> 4
        assert h["buckets"] == {"0": 1, "1": 1, "2": 2, "4": 1}

    def test_flush_metrics_writes_counter_lines(self, obs_dir):
        obs.metrics().counter("cache.graph.hits", 4)
        obs.metrics().gauge("pool.workers", 2)
        obs.metrics().histogram("engine.band_time_imbalance").observe(1.5)
        obs.flush_metrics()
        events = read_own_file(obs_dir)
        counters = {e["name"]: e["args"]["value"] for e in events if e["ph"] == "C"}
        assert counters["cache.graph.hits"] == 4.0
        assert counters["pool.workers"] == 2.0
        hist = [e for e in events if e["name"] == "obs.histogram"]
        assert hist and hist[0]["args"]["metric"] == "engine.band_time_imbalance"

    def test_flush_metrics_disabled_is_noop(self, obs_off):
        obs.metrics().counter("anything")
        obs.flush_metrics()
        assert not (obs_off / "obs").exists()


class TestProgressHeartbeat:
    def test_renders_counts_rate_and_eta(self):
        reg = obs.MetricsRegistry()
        clock = iter([0.0, 1.0, 2.0, 2.0]).__next__
        lines: list[str] = []
        hb = obs.ProgressHeartbeat(
            10, emit=lines.append, interval=100.0, clock=clock, registry=reg,
        )
        reg.counter("sweep.cells_executed")  # orchestrator-maintained
        hb.tick()
        reg.counter("sweep.cells_replayed")
        hb.tick()
        line = hb.render()
        assert line.startswith("progress: 2/10 cells (20%)")
        assert "1 executed, 1 replayed, 0 resumed" in line
        assert "1.0 cells/s, ETA 8s" in line

    def test_interval_gates_emission(self):
        reg = obs.MetricsRegistry()
        t = [0.0]
        lines: list[str] = []
        hb = obs.ProgressHeartbeat(
            4, emit=lines.append, interval=5.0, clock=lambda: t[0], registry=reg,
        )
        hb.tick()          # t=0: inside the first interval -> silent
        assert lines == []
        t[0] = 6.0
        hb.tick()          # interval elapsed -> one line
        assert len(lines) == 1
        hb.tick()          # immediately after -> gated again
        assert len(lines) == 1

    def test_baseline_excludes_earlier_sweeps(self):
        reg = obs.MetricsRegistry()
        reg.counter("sweep.cells_executed", 50)  # a previous run's residue
        hb = obs.ProgressHeartbeat(
            2, emit=lambda _line: None, interval=100.0,
            clock=iter([0.0, 1.0, 1.0]).__next__, registry=reg,
        )
        reg.counter("sweep.cells_executed")  # orchestrator-maintained
        hb.tick()
        assert "1 executed, 0 replayed" in hb.render()
