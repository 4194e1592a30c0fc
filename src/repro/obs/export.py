"""Export the event log to Chrome trace-event format (Perfetto,
about://tracing).

Our on-disk schema was designed within arm's reach of the trace-event
spec, so export is nearly identity: ``B``/``E``/``I``/``C``/``M`` lines
map to the phases of the same name, ``ts`` is already microseconds, and
``tid`` carries through.  Differences handled here:

* each writer, a (pid, writer id) pair (:func:`~repro.obs.core.iter_writers`),
  gets its own Chrome ``pid``, so two processes that held one pid in turn
  land on two tracks: the first writer of a pid keeps it, a later one gets
  ``pid + k * 2**22`` (above Linux's pid ceiling) for the smallest
  ``k >= 1`` no other writer uses, and its ``process_name`` names the
  real pid;
* instant events gain ``"s": "t"`` (thread scope) as the spec requires;
* counter values move into ``args`` keyed by the counter name so the
  viewer draws a track per counter;
* ``M`` metadata lines become ``process_name``/``thread_name`` metadata
  records;
* our ``v``/``seq`` bookkeeping fields are dropped.

The output is the JSON-object form ``{"traceEvents": [...]}``, which
both viewers accept.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.obs.core import iter_writers, read_events

__all__ = ["to_chrome_trace", "export_chrome"]


def _chrome_pids(writers: list[tuple]) -> dict[tuple, int]:
    """One distinct Chrome pid per writer ``(pid, writer id)``, in first-seen
    order: a pid's first writer keeps it, later ones move up in strides
    of Linux's pid ceiling (``pid_max`` <= 2**22), so never onto a real pid."""
    used = {pid for pid, _ in writers}
    seen: set = set()
    out: dict[tuple, int] = {}
    for pid, writer in writers:
        mapped = pid
        if pid in seen:
            while mapped in used:
                mapped += 1 << 22
            used.add(mapped)
        seen.add(pid)
        out[(pid, writer)] = mapped
    return out


def to_chrome_trace(events: list[dict]) -> dict:
    """Translate event-log lines to a trace-event JSON object."""
    keyed = list(iter_writers(events))
    pids = _chrome_pids(list(dict.fromkeys(writer for writer, _ in keyed)))
    out: list[dict] = []
    for writer, evt in keyed:
        ph = evt.get("ph")
        name = evt.get("name", "")
        args = evt.get("args") or {}
        base = {
            "name": name,
            "cat": evt.get("cat") or "repro",
            "ph": ph,
            "ts": evt.get("ts", 0),
            "pid": pids[writer],
            "tid": evt.get("tid", 0),
        }
        if ph in ("B", "E"):
            if args:
                base["args"] = args
        elif ph == "I":
            base["ph"] = "i"
            base["s"] = "t"
            if args:
                base["args"] = args
        elif ph == "C":
            base["args"] = {name: args.get("value", 0)}
        elif ph == "M":
            base["ph"] = "M"
            base["name"] = name if name in ("process_name", "thread_name") else "process_name"
            label = args.get("name", "repro")
            if base["pid"] != writer[0]:
                label = f"{label} (pid {writer[0]})"
            base["args"] = {"name": label}
            base.pop("cat", None)
            base.pop("ts", None)
        else:
            continue
        out.append(base)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def export_chrome(
    out_path: str | os.PathLike,
    where: str | os.PathLike | None = None,
) -> int:
    """Write the Chrome trace JSON for the event log at ``where`` (default:
    the resolved obs directory) to ``out_path``; returns the number of
    trace events written."""
    events = read_events(where)
    trace = to_chrome_trace(events)
    path = Path(out_path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=1, default=str)
        fh.write("\n")
    return len(trace["traceEvents"])
