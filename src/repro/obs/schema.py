"""Event-log schema: field contracts and validation.

Every line in ``events-<pid>.jsonl`` is one JSON object:

====== ======= =====================================================
field  type    meaning
====== ======= =====================================================
v      int     schema version (:data:`repro.obs.core.EVENT_VERSION`)
seq    int     per-process sequence number, starts at 1, gap-free
               within one process lifetime
ts     int     microseconds since the Unix epoch (per-process
               ``perf_counter`` base — monotonic per thread)
pid    int     emitting process id
tid    int     emitting thread id (``threading.get_ident``)
ph     str     phase: "B" span begin, "E" span end, "I" instant,
               "C" counter sample, "M" metadata
name   str     event name, dotted: ``layer.action`` ("cache.get",
               "engine.step", "sweep.cell")
cat    str     coarse category for filtering ("store", "engine",
               "sweep", "metric", "meta"); may be empty
args   object  optional payload — context attributes merged with the
               event's own keyword arguments
====== ======= =====================================================

Versioning: readers skip lines whose ``v`` differs from theirs (the log
is append-only and may span repo versions).  A field may gain meaning
only under a version bump; ``args`` keys are free-form and carry no
compatibility promise.

What is **not** here, on purpose: nothing in this log ever feeds an
artifact key, a results-store row, or a content hash — observability is
write-only from the computation's point of view.
"""

from __future__ import annotations

from repro.obs.core import EVENT_VERSION, PHASES, iter_writers

__all__ = ["EVENT_VERSION", "PHASES", "validate_event", "validate_events"]

_REQUIRED = {
    "v": int,
    "seq": int,
    "ts": int,
    "pid": int,
    "tid": int,
    "ph": str,
    "name": str,
    "cat": str,
}


def validate_event(evt: object) -> list[str]:
    """Problems with one event line ([] means valid)."""
    problems: list[str] = []
    if not isinstance(evt, dict):
        return [f"event is {type(evt).__name__}, expected object"]
    for field, typ in _REQUIRED.items():
        if field not in evt:
            problems.append(f"missing field {field!r}")
        elif not isinstance(evt[field], typ) or isinstance(evt[field], bool):
            problems.append(
                f"field {field!r} is {type(evt[field]).__name__}, expected {typ.__name__}"
            )
    if not problems:
        if evt["v"] != EVENT_VERSION:
            problems.append(f"version {evt['v']} != {EVENT_VERSION}")
        if evt["ph"] not in PHASES:
            problems.append(f"phase {evt['ph']!r} not in {PHASES}")
        if evt["seq"] < 1:
            problems.append("seq must be >= 1")
        if not evt["name"]:
            problems.append("name must be non-empty")
    if "args" in evt and not isinstance(evt.get("args"), dict):
        problems.append("args must be an object when present")
    unknown = set(evt) - set(_REQUIRED) - {"args"} if isinstance(evt, dict) else set()
    for field in sorted(unknown):
        problems.append(f"unknown field {field!r}")
    return problems


def validate_events(events: list[dict]) -> list[str]:
    """Problems across a whole event list: per-event validity plus the
    cross-event invariants (monotonic ts per writer thread, increasing seq
    per writer).  A writer is one process, a pid with the start time its
    ``process_name`` line records (:func:`repro.obs.core.iter_writers`):
    the checks restart when a later process that held the same pid
    records its own start."""
    problems: list[str] = []
    last_ts: dict[tuple, int] = {}
    last_seq: dict[tuple, int] = {}
    for i, (writer, evt) in enumerate(iter_writers(events)):
        for problem in validate_event(evt):
            problems.append(f"event {i}: {problem}")
        if not isinstance(evt, dict):
            continue
        pid, tid, ts, seq = (
            evt.get("pid"), evt.get("tid"), evt.get("ts"), evt.get("seq"),
        )
        if isinstance(ts, int) and isinstance(pid, int) and isinstance(tid, int):
            key = (writer, tid)
            if key in last_ts and ts < last_ts[key]:
                problems.append(
                    f"event {i}: ts {ts} < previous {last_ts[key]} on pid {pid} tid {tid}"
                )
            last_ts[key] = ts
        if isinstance(seq, int) and isinstance(pid, int):
            if writer in last_seq and seq <= last_seq[writer]:
                problems.append(
                    f"event {i}: seq {seq} <= previous {last_seq[writer]} on pid {pid}"
                )
            last_seq[writer] = seq
    return problems
