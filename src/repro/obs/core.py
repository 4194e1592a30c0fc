"""Structured observability core: spans, events, metrics, JSONL sink.

The paper's whole argument is about *load balance*, yet most of what this
repository does — cache lookups, trace dedup, sweep scheduling, per-band
chunk timings — used to be invisible or printed ad hoc.  This module is
the shared substrate every layer reports into:

* **Spans** — :func:`span` is a thread-safe, nestable context manager
  emitting a begin ("B") event on entry and an end ("E") event on exit,
  Chrome-trace style, so a full sweep renders as a timeline.
* **Instant events** — :func:`event` emits a single "I" line (a cache
  hit, a trace replay, one engine step's band timings).
* **Context attributes** — :func:`context` pushes thread-local key/value
  pairs merged into the ``args`` of every event emitted while active;
  the runner wraps each execution in ``context(graph=..., ordering=...,
  algorithm=...)`` so deep layers (the engine, the cache) never need to
  be told what experiment they are serving.
* **Metrics registry** — :func:`metrics` returns the per-process
  :class:`MetricsRegistry` of counters, gauges and histograms;
  :func:`flush_metrics` snapshots it into the event log ("C" lines).

Gating and overhead
-------------------
Everything is off unless the ``REPRO_OBS`` environment variable is
non-empty (or :func:`force_enabled` is used); the CLI's ``--obs`` flag
sets the variable so pool workers inherit it.  When disabled, every
entry point returns immediately after one environment lookup — the
disabled :func:`span` hands back a shared no-op context manager and
allocates nothing — so instrumented hot paths stay at their seed speed
(pinned by ``tests/obs/test_overhead.py``).  Observability **never**
feeds artifact keys, result payloads or store bytes: the event log is a
separate append-only file tree, and the byte-identity of everything else
with obs on vs. off is pinned by ``tests/obs/test_obs_identity.py``.

On-disk layout
--------------
Events persist under the *obs directory* — ``REPRO_OBS_DIR`` if set,
else ``<artifact cache root>/obs`` — as one append-only, versioned JSONL
file **per writer**: each process draws a random *writer id* when it
first opens its sink (a forked child draws its own) and writes
``events-<pid>-<writer>.jsonl``, through :mod:`repro.store.appendlog`
like every other log of the repository (one ``os.write`` per event on a
descriptor held open for the process, orphan tails terminated,
undecodable lines skipped on read).  The writer's first line in its file
(its ``process_name`` metadata) records the id, so a pid that the OS
hands to a later process names a different writer.  One writer per file
means no cross-process locking; within a process a lock serializes
writes, so lines never interleave.  :func:`merge_process_files` folds the
files it is given into the calling process's own log (raw byte append —
lossless by construction): the sweep orchestrator passes the files its
pool workers reported, once the pool has exited.  Every line carries
``{"v": EVENT_VERSION, "seq", "ts", "pid", "tid", "ph", "name", "cat",
"args"}``; ``ts`` is microseconds since the epoch derived from one
``perf_counter`` base per process, so timestamps are monotonic per thread
and comparable across processes.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator

__all__ = [
    "EVENT_VERSION",
    "OBS_DIR_ENV_VAR",
    "OBS_ENV_VAR",
    "Histogram",
    "MetricsRegistry",
    "ProgressHeartbeat",
    "context",
    "enabled",
    "event",
    "events_path",
    "flush_metrics",
    "force_enabled",
    "merge_process_files",
    "metrics",
    "read_events",
    "reset",
    "resolve_obs_dir",
    "set_obs_dir",
    "span",
]

#: Any non-empty value enables observability (mirrors ``REPRO_CACHE_OFF``'s
#: non-empty convention).
OBS_ENV_VAR = "REPRO_OBS"

#: Overrides where event files are written; defaults to
#: ``<artifact cache root>/obs``.
OBS_DIR_ENV_VAR = "REPRO_OBS_DIR"

#: Schema version stamped on every event line; bump when a field changes
#: meaning so consumers can skip (or translate) stale lines.
EVENT_VERSION = 1

#: The Chrome-trace-style phases an event line may carry.
PHASES = ("B", "E", "I", "C", "M")


# ----------------------------------------------------------------------
# gate
# ----------------------------------------------------------------------

_FORCED: bool | None = None  # force_enabled() override, tests mostly


def enabled() -> bool:
    """Whether observability is on — one env lookup, nothing else.

    This is the gate every instrumentation site checks first; keeping it
    to a single ``os.environ`` probe (~100ns) is what makes the disabled
    hot path indistinguishable from uninstrumented code.
    """
    if _FORCED is not None:
        return _FORCED
    return bool(os.environ.get(OBS_ENV_VAR))


class force_enabled:
    """Context manager pinning the gate open (or shut) regardless of the
    environment — the programmatic equivalent of ``REPRO_OBS=1``."""

    def __init__(self, value: bool = True) -> None:
        self._value = value
        self._prev: bool | None = None

    def __enter__(self) -> "force_enabled":
        global _FORCED
        self._prev = _FORCED
        _FORCED = self._value
        return self

    def __exit__(self, *exc) -> None:
        global _FORCED
        _FORCED = self._prev


# ----------------------------------------------------------------------
# sink: one append-only JSONL file per writer
# ----------------------------------------------------------------------

class _Sink:
    """Process-local event writer (re-resolved on env or pid change)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.pid: int | None = None       # the process that drew ``writer``
        self.writer = ""                  # random id naming this process's writes
        self.sig: tuple | None = None     # env signature the file was opened under
        self.path: Path | None = None     # the file open on ``fd``
        self.fd: int | None = None
        self.seq = 0
        #: wall-clock microseconds at perf_counter zero — one per process,
        #: so ts = _EPOCH + perf_counter is monotonic per thread (perf
        #: counter is process-wide monotonic) yet comparable across
        #: processes through the shared wall clock.
        self.epoch_us: int = 0
        self.perf0_ns: int = 0


_SINK = _Sink()
_EXPLICIT_DIR: Path | None = None


def set_obs_dir(path: str | os.PathLike | None) -> Path | None:
    """Explicitly point this process's event sink at ``path`` (``None``
    reverts to the environment-resolved default), and return the
    directory set before.  A sweep points every process of one run at its
    cache root's obs directory, and the orchestrator puts the previous
    one back when the sweep ends."""
    global _EXPLICIT_DIR
    previous = _EXPLICIT_DIR
    _EXPLICIT_DIR = Path(path) if path is not None else None
    return previous


def resolve_obs_dir() -> Path | None:
    """Where event files go: explicit :func:`set_obs_dir` >
    ``REPRO_OBS_DIR`` > ``<artifact cache root>/obs`` (``None`` when the
    cache is disabled and nothing else is set — events are dropped)."""
    if _EXPLICIT_DIR is not None:
        return _EXPLICIT_DIR
    env = os.environ.get(OBS_DIR_ENV_VAR)
    if env:
        return Path(env)
    if os.environ.get("REPRO_CACHE_OFF"):
        return None
    from repro.store.cache import default_cache_root

    return default_cache_root() / "obs"


def events_path() -> Path | None:
    """The event file this process has open,
    ``events-<pid>-<writer>.jsonl`` (``None`` before the process's first
    event, and while events have nowhere to go)."""
    s = _SINK
    return s.path if s.pid == os.getpid() else None


def _now_us() -> int:
    return _SINK.epoch_us + (time.perf_counter_ns() - _SINK.perf0_ns) // 1000


def _ensure_open() -> bool:
    """(Re)open this process's event file; returns False when events have
    nowhere to go.  Called under the sink lock."""
    s = _SINK
    pid = os.getpid()
    sig = (
        pid,
        str(_EXPLICIT_DIR) if _EXPLICIT_DIR is not None else None,
        os.environ.get(OBS_DIR_ENV_VAR),
        os.environ.get("REPRO_CACHE_DIR"),
        os.environ.get("REPRO_CACHE_OFF"),
    )
    if s.fd is not None and s.sig == sig:
        return True
    _close_locked()
    s.sig = sig
    root = resolve_obs_dir()
    if root is None:
        return False
    if s.pid != pid:
        # First open in this process (or first after a fork): draw the
        # writer id, anchor the clock and restart the sequence counter.
        s.pid = pid
        s.writer = os.urandom(8).hex()
        s.perf0_ns = time.perf_counter_ns()
        s.epoch_us = time.time_ns() // 1000 - (
            time.perf_counter_ns() - s.perf0_ns
        ) // 1000
        s.seq = 0
    path = root / f"events-{pid}-{s.writer}.jsonl"
    from repro.store.appendlog import open_log

    try:
        s.fd = open_log(path)
    except OSError:
        return False
    s.path = path
    _write_locked("M", "process_name", {"name": "repro", "writer": s.writer}, cat="meta")
    return True


def _close_locked() -> None:
    if _SINK.fd is not None:
        try:
            os.close(_SINK.fd)
        except OSError:  # pragma: no cover - best effort
            pass
        _SINK.fd = None
    _SINK.path = None


def _write_locked(ph: str, name: str, args: dict | None, cat: str = "") -> None:
    """Serialize and append one line.  Caller holds the lock and has
    ensured the file is open."""
    from repro.store.appendlog import encode, write_log

    s = _SINK
    s.seq += 1
    line = {
        "v": EVENT_VERSION,
        "seq": s.seq,
        "ts": _now_us(),
        "pid": s.pid,
        "tid": threading.get_ident(),
        "ph": ph,
        "name": name,
        "cat": cat,
    }
    if args:
        line["args"] = args
    write_log(s.fd, encode([line], default=str))


def _emit(ph: str, name: str, args: dict | None, cat: str = "") -> None:
    merged = _merged_args(args)
    with _SINK.lock:
        if _ensure_open():
            _write_locked(ph, name, merged, cat=cat)


def reset() -> None:
    """Close the sink and forget process-local state (tests; harmless in
    production — the next event reopens lazily)."""
    global _EXPLICIT_DIR
    with _SINK.lock:
        _close_locked()
        _SINK.sig = None
    _EXPLICIT_DIR = None
    _METRICS.clear()


# ----------------------------------------------------------------------
# context attributes (thread-local, inherited by every event)
# ----------------------------------------------------------------------

_TLS = threading.local()


def _merged_args(args: dict | None) -> dict | None:
    stack = getattr(_TLS, "ctx", None)
    if not stack:
        return args
    merged: dict = {}
    for frame in stack:
        merged.update(frame)
    if args:
        merged.update(args)
    return merged


class _Context:
    __slots__ = ("_attrs",)

    def __init__(self, attrs: dict) -> None:
        self._attrs = attrs

    def __enter__(self) -> "_Context":
        stack = getattr(_TLS, "ctx", None)
        if stack is None:
            stack = _TLS.ctx = []
        stack.append(self._attrs)
        return self

    def __exit__(self, *exc) -> None:
        _TLS.ctx.pop()


def context(**attrs) -> "_Context | _NullCM":
    """Attach ``attrs`` to the ``args`` of every event this thread emits
    while the context is active (innermost wins; an event's own args win
    over any context)."""
    if not enabled():
        return _NULL_CM
    return _Context(attrs)


# ----------------------------------------------------------------------
# spans and events
# ----------------------------------------------------------------------

class _NullCM:
    """Shared no-op context manager — the disabled path allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullCM":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_CM = _NullCM()


class _Span:
    __slots__ = ("name", "cat", "args")

    def __init__(self, name: str, cat: str, args: dict | None) -> None:
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_Span":
        _emit("B", self.name, self.args, cat=self.cat)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        # The end event repeats nothing: consumers pair it with the most
        # recent unmatched "B" of the same (pid, tid) — spans nest
        # strictly because this is a context manager.
        _emit(
            "E", self.name,
            {"error": exc_type.__name__} if exc_type is not None else None,
            cat=self.cat,
        )


def span(name: str, cat: str = "", **args) -> "_Span | _NullCM":
    """A timed, nestable span: ``with obs.span("store.load_graph",
    dataset="twitter"): ...``.  Emits nothing when disabled."""
    if not enabled():
        return _NULL_CM
    return _Span(name, cat, args or None)


def event(name: str, cat: str = "", **args) -> None:
    """Emit one instant event (phase "I").  No-op when disabled."""
    if not enabled():
        return
    _emit("I", name, args or None, cat=cat)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------

class Histogram:
    """Summary-statistics histogram: count/sum/min/max plus power-of-two
    bucket counts (bucket ``i`` holds values in ``[2**(i-1), 2**i)``;
    bucket 0 holds values < 1).  Enough structure for load-imbalance and
    latency distributions without pulling in a dependency."""

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        bucket = 0 if value < 1.0 else max(1, int(value).bit_length())
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Thread-safe named counters, gauges and histograms.

    Aggregation is in-memory and per process; :func:`flush_metrics`
    snapshots the registry into the event log so the ``obs report``
    consumer (and, later, a pricing daemon's stats endpoint) can read it
    back.  Unlike spans, the registry works even when the event sink has
    nowhere to write — the sweep heartbeat reads it live.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str, delta: float = 1.0) -> float:
        """Increment (and return) the named monotonically growing count."""
        with self._lock:
            value = self._counters.get(name, 0.0) + delta
            self._counters[name] = value
            return value

    def gauge(self, name: str, value: float) -> None:
        """Set the named point-in-time value."""
        with self._lock:
            self._gauges[name] = float(value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (created on first use).  ``observe`` on the
        returned object is single-writer cheap; cross-thread observes are
        tolerated (worst case a lost increment in a summary statistic,
        never corruption)."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            return hist

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    k: h.snapshot() for k, h in self._histograms.items()
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_METRICS = MetricsRegistry()


def metrics() -> MetricsRegistry:
    """This process's metrics registry (live even when the sink is not)."""
    return _METRICS


def rss_bytes() -> int:
    """Current resident-set size of this process in bytes (0 if unknown).

    Read from ``/proc/self/statm`` (Linux); the out-of-core tier uses this
    as a gauge to prove memory-mapped loads keep the working set flat.
    Cheap enough to sample per cache hit, and platform-gated so the obs
    layer stays dependency-free.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            fields = fh.read().split()
        return int(fields[1]) * (os.sysconf("SC_PAGE_SIZE") or 4096)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0


def flush_metrics() -> None:
    """Snapshot the registry into the event log: one Chrome-style counter
    ("C") line per counter/gauge and one "I" line per histogram.  No-op
    when disabled."""
    if not enabled():
        return
    snap = _METRICS.snapshot()
    for name, value in snap["counters"].items():
        _emit("C", name, {"value": value}, cat="metric")
    for name, value in snap["gauges"].items():
        _emit("C", name, {"value": value}, cat="metric")
    for name, hist in snap["histograms"].items():
        _emit("I", "obs.histogram", {"metric": name, **hist}, cat="metric")


# ----------------------------------------------------------------------
# reading and merging
# ----------------------------------------------------------------------

def _event(line) -> dict | None:
    return line if isinstance(line, dict) and line.get("v") == EVENT_VERSION else None


def iter_writers(events) -> Iterator[tuple[tuple, dict]]:
    """Each event with its writer, ``(pid, writer id)``: the id that the
    latest ``process_name`` line of its pid so far records, or ``None``
    when none does.  Two processes that held one pid in turn are two
    writers (each numbers its events from seq 1).  Logs written before
    writer ids recorded the writer's start time in their place, and that
    serves as the id; lines without either all belong to one writer per
    pid."""
    writers: dict = {}
    for evt in events:
        pid = evt.get("pid", 0) if isinstance(evt, dict) else None
        writer = _recorded_writer(evt)
        if writer is not None:
            writers[pid] = writer
        yield (pid, writers.get(pid)), evt


def read_events(where: str | os.PathLike | None = None) -> list[dict]:
    """Every valid event line under the obs directory (or an explicit
    file/directory), in (pid, writer, seq) order, where the writers of one
    pid read back in the order they opened: by the ``ts`` of each one's
    first line, its ``process_name`` (:func:`iter_writers`, applied to
    each file in file order).

    Tolerant like every log reader in this repository
    (:func:`repro.store.appendlog.read_log`): undecodable lines (a write
    truncated by a kill, a flipped bit) and lines of a different schema
    version are skipped, and so are files that cannot be read.
    """
    from repro.store.appendlog import read_log

    root = Path(where) if where is not None else resolve_obs_dir()
    if root is None:
        return []
    paths = [root] if root.is_file() else sorted(root.glob("events-*.jsonl"))
    keyed: list[tuple[tuple, dict]] = []
    for path in paths:
        try:
            keyed.extend(iter_writers(read_log(path, _event)))
        except OSError:
            continue
    opened: dict = {}
    for writer, evt in keyed:
        opened.setdefault(writer, evt.get("ts", 0))
    keyed.sort(key=lambda kv: (kv[0][0], opened[kv[0]], kv[1].get("seq", 0)))
    return [evt for _, evt in keyed]


def _recorded_writer(evt) -> str | int | None:
    """The writer id a ``process_name`` line records, if any: its
    ``writer``, or the ``start`` that older logs recorded instead."""
    if _event(evt) is None or evt.get("ph") != "M" or evt.get("name") != "process_name":
        return None
    args = evt.get("args")
    writer = args.get("writer", args.get("start")) if isinstance(args, dict) else None
    return writer if isinstance(writer, (str, int)) else None


def merge_process_files(paths: Iterable[str | os.PathLike]) -> int:
    """Fold the event files at ``paths`` into this process's own log.

    Lossless by construction: each file's raw bytes are appended verbatim
    to our file in one write, then the file is deleted; a file that
    cannot be read is left out.  The caller vouches that every writer of
    those files has exited: the sweep orchestrator passes the files its
    pool workers reported, after the pool has shut down, so one run's
    events end up in one file however many workers it fanned out.
    Returns the number of files merged.
    """
    from repro.store.appendlog import write_log

    merged = 0
    for path in paths:
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError:
            continue
        with _SINK.lock:
            if not _ensure_open():
                return merged
            write_log(_SINK.fd, blob)
        path.unlink(missing_ok=True)
        merged += 1
    return merged


# ----------------------------------------------------------------------
# progress heartbeat (built on the metrics registry)
# ----------------------------------------------------------------------

class ProgressHeartbeat:
    """Periodic progress line for long sweeps: cells done/total, executed
    vs. replayed, cells/sec and ETA.

    The executed/replayed/resumed breakdown is *read* from the metrics
    registry (``sweep.cells_executed`` etc. — the sweep orchestrator
    bumps those as cells land, whether or not event logging is on),
    against a baseline captured at construction so earlier sweeps in the
    same process don't leak in.  ``emit`` receives the rendered line; ``interval`` seconds gate the
    output (the first tick never prints — a sweep shorter than one
    interval stays silent).  ``clock`` is injectable for tests.
    """

    _STATUS_COUNTERS = (
        "sweep.cells_executed", "sweep.cells_replayed", "sweep.cells_resumed",
    )

    def __init__(
        self,
        total: int,
        emit: Callable[[str], None],
        interval: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.total = int(total)
        self.emit = emit
        self.interval = float(interval)
        self.clock = clock
        self.registry = registry if registry is not None else metrics()
        self.start = self.clock()
        self._last = self.start
        self._done = 0
        base = self.registry.snapshot()["counters"]
        self._base = {name: base.get(name, 0.0) for name in self._STATUS_COUNTERS}

    def tick(self) -> None:
        """Record one completed cell; print when the interval elapsed."""
        self._done += 1
        self.registry.counter("sweep.cells_done")
        now = self.clock()
        if now - self._last < self.interval:
            return
        self._last = now
        self.emit(self.render(now))

    def render(self, now: float | None = None) -> str:
        now = self.clock() if now is None else now
        snap = self.registry.snapshot()["counters"]
        count = {
            name: int(snap.get(name, 0.0) - self._base[name])
            for name in self._STATUS_COUNTERS
        }
        done = self._done
        elapsed = max(now - self.start, 1e-9)
        rate = done / elapsed
        remaining = max(self.total - done, 0)
        eta = remaining / rate if rate > 0 else float("inf")
        pct = 100.0 * done / self.total if self.total else 100.0
        return (
            f"progress: {done}/{self.total} cells ({pct:.0f}%), "
            f"{count['sweep.cells_executed']} executed, "
            f"{count['sweep.cells_replayed']} replayed, "
            f"{count['sweep.cells_resumed']} resumed, "
            f"{rate:.1f} cells/s, ETA {eta:.0f}s"
        )


def iter_span_pairs(events: list[dict]) -> Iterator[tuple[dict, dict, int]]:
    """Pair "B"/"E" events per (writer, tid) stack (:func:`iter_writers`),
    yielding ``(begin, end, duration_us)``.  Unclosed spans (a crashed
    process) are dropped — timeline consumers render what completed."""
    stacks: dict[tuple, list[dict]] = {}
    for writer, evt in iter_writers(events):
        ph = evt.get("ph")
        if ph not in ("B", "E"):
            continue
        key = (writer, evt.get("tid"))
        if ph == "B":
            stacks.setdefault(key, []).append(evt)
        else:
            stack = stacks.get(key)
            if stack:
                begin = stack.pop()
                yield begin, evt, int(evt.get("ts", 0)) - int(begin.get("ts", 0))
