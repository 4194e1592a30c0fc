"""Schema validation of real emitted events, and the Chrome trace export."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.export import export_chrome, to_chrome_trace
from repro.obs.schema import validate_event, validate_events


def emit_sample(obs_dir):
    with obs.context(graph="g", ordering="vebo"):
        with obs.span("run.execute", cat="run", algorithm="PR"):
            obs.event("cache.get", cat="store", kind="graph", hit=True)
    obs.metrics().counter("cache.graph.hits")
    obs.flush_metrics()
    return obs.read_events(obs_dir)


class TestSchema:
    def test_every_emitted_event_validates(self, obs_dir):
        events = emit_sample(obs_dir)
        assert events
        assert validate_events(events) == []

    def test_missing_field(self):
        assert validate_event({"v": 1}) != []

    def test_wrong_types(self):
        base = {
            "v": 1, "seq": 1, "ts": 0, "pid": 1, "tid": 1,
            "ph": "I", "name": "x", "cat": "",
        }
        assert validate_event(base) == []
        assert validate_event({**base, "seq": "1"})
        assert validate_event({**base, "seq": True})  # bools are not ints here
        assert validate_event({**base, "ph": "Q"})
        assert validate_event({**base, "name": ""})
        assert validate_event({**base, "seq": 0})
        assert validate_event({**base, "v": 999})
        assert validate_event({**base, "args": [1]})
        assert validate_event({**base, "extra": 1})
        assert validate_event("not an object")

    def test_cross_event_invariants(self):
        mk = lambda **kw: {
            "v": 1, "seq": 1, "ts": 0, "pid": 1, "tid": 1,
            "ph": "I", "name": "x", "cat": "", **kw,
        }
        # ts going backwards on one (pid, tid) is a violation...
        bad_ts = [mk(seq=1, ts=10), mk(seq=2, ts=5)]
        assert any("ts" in p for p in validate_events(bad_ts))
        # ...but not across different threads.
        ok = [mk(seq=1, ts=10, tid=1), mk(seq=2, ts=5, tid=2)]
        assert validate_events(ok) == []
        # seq must strictly increase per pid.
        bad_seq = [mk(seq=2, ts=0), mk(seq=2, ts=1)]
        assert any("seq" in p for p in validate_events(bad_seq))


class TestChromeExport:
    def test_phases_translate(self, obs_dir):
        events = emit_sample(obs_dir)
        trace = to_chrome_trace(events)
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        out = trace["traceEvents"]
        phases = {e["ph"] for e in out}
        assert phases <= {"B", "E", "i", "C", "M"}
        instants = [e for e in out if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)
        counters = [e for e in out if e["ph"] == "C"]
        assert counters and counters[0]["args"] == {"cache.graph.hits": 1.0}
        metas = [e for e in out if e["ph"] == "M"]
        assert metas and metas[0]["name"] == "process_name"
        spans = [e for e in out if e["ph"] in ("B", "E")]
        assert spans
        # Context attributes rode along into the span args.
        begin = next(e for e in spans if e["ph"] == "B")
        assert begin["args"]["graph"] == "g"
        # Bookkeeping fields are dropped.
        assert all("v" not in e and "seq" not in e for e in out)

    def test_export_writes_valid_json(self, obs_dir, tmp_path):
        emit_sample(obs_dir)
        out = tmp_path / "nested" / "trace.json"
        n = export_chrome(out, obs_dir)
        data = json.loads(out.read_text(encoding="utf-8"))
        assert len(data["traceEvents"]) == n > 0

    def test_export_empty_log(self, tmp_path):
        out = tmp_path / "trace.json"
        assert export_chrome(out, tmp_path / "nowhere") == 0
        assert json.loads(out.read_text(encoding="utf-8"))["traceEvents"] == []

    def test_two_writers_of_one_pid_get_two_tracks(self, tmp_path):
        """A dead writer's unclosed span must not enclose the spans of the
        process that later held its pid: each writer is its own track."""
        writer_a = [_line(1, 100, "M", "process_name", name="repro", writer="a"),
                    _line(2, 101, "B", "killed")]
        writer_b = [_line(1, 900, "M", "process_name", name="repro", writer="b"),
                    _line(2, 901, "B", "b"), _line(3, 902, "E", "b")]
        _write_log(tmp_path, writer_a)
        _write_log(tmp_path, writer_b)
        out = to_chrome_trace(obs.read_events(tmp_path))["traceEvents"]
        assert len(out) == 5
        pid_a = {e["pid"] for e in out if e["name"] == "killed"}
        pid_b = {e["pid"] for e in out if e["name"] == "b"}
        assert pid_a == {4242}
        assert len(pid_b) == 1 and pid_b != pid_a
        names = {e["pid"]: e["args"]["name"] for e in out if e["ph"] == "M"}
        assert set(names) == pid_a | pid_b
        assert "4242" in names[pid_b.pop()]

    def test_later_writer_takes_a_pid_no_writer_holds(self, tmp_path):
        """The moved writer must not land on the pid another writer in the
        export already has."""
        high = 4242 + 2**22
        _write_log(tmp_path, [_line(1, 100, "M", "process_name", name="repro", writer="a")])
        _write_log(tmp_path, [_line(1, 900, "M", "process_name", name="repro", writer="b")])
        _write_log(tmp_path, [
            _line(1, 500, "M", "process_name", name="repro", writer="c", pid=high),
        ])
        out = to_chrome_trace(obs.read_events(tmp_path))["traceEvents"]
        assert [e["pid"] for e in out] == [4242, 4242 + 2**23, high]
        assert [e["args"]["name"] for e in out] == [
            "repro", "repro (pid 4242)", "repro"]

    def test_single_writers_keep_their_pids(self, tmp_path):
        for pid in (11, 12):
            _write_log(tmp_path, [
                _line(1, 100, "M", "process_name", name="repro", writer="a", pid=pid),
                _line(2, 101, "B", "s", pid=pid), _line(3, 102, "E", "s", pid=pid),
            ])
        out = to_chrome_trace(obs.read_events(tmp_path))["traceEvents"]
        assert [e["pid"] for e in out] == [11, 11, 11, 12, 12, 12]
        assert [e["args"]["name"] for e in out if e["ph"] == "M"] == ["repro"] * 2


def _line(seq, ts, ph, event, pid=4242, **args):
    """One event-log line of writer ``pid`` on thread 1."""
    evt = {"v": obs.core.EVENT_VERSION, "seq": seq, "ts": ts, "pid": pid,
           "tid": 1, "ph": ph, "name": event, "cat": ""}
    return {**evt, "args": args} if args else evt


def _write_log(root, events):
    """The log of the writer whose ``process_name`` line opens ``events``."""
    first = events[0]
    path = root / f"events-{first['pid']}-{first['args']['writer']}.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in events), encoding="utf-8")
    return path
