"""Span/event/context semantics, the sink's on-disk contract, the metrics
registry, and the progress heartbeat."""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import core
from repro.obs.export import to_chrome_trace
from repro.obs.schema import validate_events


def read_own_file():
    with open(obs.events_path(), "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _line(seq, ts, ph, event, pid=4242, **args):
    """One event-log line of writer ``pid`` on thread 1."""
    evt = {"v": core.EVENT_VERSION, "seq": seq, "ts": ts, "pid": pid,
           "tid": 1, "ph": ph, "name": event, "cat": ""}
    return {**evt, "args": args} if args else evt


def _write_lines(path, events):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    return path


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
        events = [e for e in read_own_file() if e["ph"] in ("B", "E")]
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
        end = [e for e in read_own_file() if e["ph"] == "E"][-1]
        assert end["args"] == {"error": "ValueError"}

    def test_instant_event(self, obs_dir):
        obs.event("cache.get", cat="store", kind="graph", hit=False)
        evt = [e for e in read_own_file() if e["ph"] == "I"][-1]
        assert evt["name"] == "cache.get"
        assert evt["args"] == {"kind": "graph", "hit": False}

    def test_seq_gap_free_and_ts_monotonic(self, obs_dir):
        for i in range(20):
            obs.event("tick", i=i)
        events = read_own_file()
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
        a, b, c = [e for e in read_own_file() if e["name"] == "engine.step"]
        assert a["args"] == {"graph": "twitter", "ordering": "vebo", "step": 3}
        assert b["args"] == {"graph": "twitter", "ordering": "original", "step": 4}
        assert c["args"]["graph"] == "override"

    def test_read_events_orders_and_tolerates_garbage(self, obs_dir):
        obs.event("one")
        obs.event("two")
        path = obs.events_path()
        core.reset()  # close so we can append garbage safely
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a kill\n")
            fh.write(json.dumps({"v": 999, "seq": 1}) + "\n")  # foreign version
        events = obs.read_events(obs_dir)
        assert [e["name"] for e in events if e["ph"] == "I"] == ["one", "two"]
        assert all(e["v"] == core.EVENT_VERSION for e in events)

    def test_event_after_torn_tail_is_not_glued_onto_it(self, obs_dir):
        obs.event("one")
        path = obs.events_path()
        core.reset()
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
            assert obs.events_path().parent == explicit
            assert obs.events_path().exists()
        finally:
            obs.set_obs_dir(None)

    def test_merge_process_files_appends_the_listed_files(self, obs_dir):
        obs.event("mine")
        # A finished writer that held this process's pid, and another
        # run's file: only the listed one is merged, whatever its pid.
        listed = _write_lines(obs_dir / f"events-{os.getpid()}-{'0' * 16}.jsonl",
                              [_line(1, 1, "I", "foreign", pid=os.getpid())])
        unlisted = _write_lines(obs_dir / "events-999999999.jsonl",
                                [_line(1, 1, "I", "bystander", pid=999999999)])
        assert obs.merge_process_files([listed]) == 1
        assert not listed.exists()
        assert unlisted.exists()
        names = {e["name"] for e in read_own_file()}
        assert {"mine", "foreign"} <= names
        assert "bystander" not in names

    def test_merge_skips_files_it_cannot_read(self, obs_dir):
        obs.event("mine")
        before = obs.events_path().read_bytes()
        assert obs.merge_process_files([obs_dir / "events-1-gone.jsonl"]) == 0
        assert obs.events_path().read_bytes() == before


class TestWriterIds:
    """Each process draws a random writer id when it first opens its sink,
    names its file after it and records it on its first line; readers
    tell writers apart by (pid, writer id)."""

    def test_file_and_first_line_carry_the_writer_id(self, obs_dir):
        obs.event("mine")
        path = obs.events_path()
        _, pid, writer = path.stem.split("-")
        assert int(pid) == os.getpid()
        assert len(bytes.fromhex(writer)) == 8
        first = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
        assert (first["ph"], first["name"]) == ("M", "process_name")
        assert first["args"] == {"name": "repro", "writer": writer}

    def test_forked_child_writes_its_own_file_under_a_new_id(self, obs_dir):
        obs.event("parent")
        parent = obs.events_path()
        child_pid = os.fork()
        if child_pid == 0:  # the child: leave without running pytest's teardown
            code = 1
            try:
                obs.event("child")
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(child_pid, 0)
        assert status == 0
        (child,) = set(obs_dir.glob("events-*.jsonl")) - {parent}
        _, pid, writer = child.stem.split("-")
        assert int(pid) == child_pid
        assert writer != parent.stem.split("-")[2]
        events = obs.read_events(child)
        assert [(e["seq"], e["name"]) for e in events] == [(1, "process_name"), (2, "child")]
        assert events[0]["args"]["writer"] == writer
        assert "child" not in {e["name"] for e in obs.read_events(parent)}

    def test_recycled_pid_writes_a_file_of_its_own(self, obs_dir):
        """A process given a dead writer's pid leaves that writer's file
        as it was."""
        dead = _write_lines(
            obs_dir / f"events-{os.getpid()}-{'0' * 16}.jsonl",
            [_line(1, 1, "M", "process_name", pid=os.getpid(), name="repro",
                   writer="0" * 16)],
        )
        before = dead.read_bytes()
        obs.event("mine")
        assert obs.events_path() != dead
        assert dead.read_bytes() == before

    def test_writers_of_one_pid_read_back_in_the_order_they_opened(self, tmp_path):
        """Both writers of one pid number their events from seq 1; the one
        that opened later reads back after the other, whatever their ids
        and file names, and the log validates clean."""
        first = [_line(1, 100, "M", "process_name", name="repro", writer="ff" * 8),
                 _line(2, 101, "B", "a"), _line(3, 102, "E", "a")]
        later = [_line(1, 900, "M", "process_name", name="repro", writer="00" * 8),
                 _line(2, 901, "I", "b")]
        _write_lines(tmp_path / f"events-4242-{'ff' * 8}.jsonl", first)
        _write_lines(tmp_path / f"events-4242-{'00' * 8}.jsonl", later)
        events = obs.read_events(tmp_path)
        assert events == first + later
        assert validate_events(events) == []
        assert [(b["name"], e["name"], d) for b, e, d in obs.iter_span_pairs(events)] == [
            ("a", "a", 1)]

    def test_log_that_records_start_times_reads_validates_and_exports(self, tmp_path):
        """Logs written before writer ids recorded each writer's start
        time on its ``process_name`` line, and a later process that held a
        pid appended to the earlier one's file.  The start serves as the
        writer id."""
        first = [_line(1, 100, "M", "process_name", name="repro", start=100),
                 _line(2, 101, "B", "killed")]
        later = [_line(1, 900, "M", "process_name", name="repro", start=900),
                 _line(2, 901, "B", "b"), _line(3, 902, "E", "b")]
        path = _write_lines(tmp_path / "events-4242.jsonl", first + later)
        events = obs.read_events(path)
        assert events == first + later
        assert validate_events(events) == []
        assert [(b["name"], e["name"]) for b, e, _ in obs.iter_span_pairs(events)] == [
            ("b", "b")]
        out = to_chrome_trace(events)["traceEvents"]
        assert len(out) == 5
        pids = [e["pid"] for e in out]
        assert pids[:2] == [4242, 4242] and pids[2] != 4242 and len(set(pids[2:])) == 1


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
        events = read_own_file()
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
