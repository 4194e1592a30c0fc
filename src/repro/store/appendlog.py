"""The repository's append-only JSONL logs: one format, one writer, one reader.

Three logs share this module: the experiment-results store
(:mod:`repro.experiments.results`), the measurement store
(:mod:`repro.store.measurements`) and the per-process obs event files
(:mod:`repro.obs.core`).  Each keeps only its own rule for a valid record
(the ``parse`` callable); everything else lives here:

* **Line format** — one ``json.dumps(record, sort_keys=True,
  separators=(",", ":"))`` object per line, newline-terminated.
* **Append** — each batch goes out in one ``os.write`` on an ``O_APPEND``
  descriptor, so lines from concurrent appenders never interleave and a
  partial final line can only be the remains of a writer killed
  mid-write.  Such an orphan is terminated first: appending straight
  onto it would glue the first new line to the partial bytes, and the
  reader would drop both.
* **Read** — a line is skipped when it is not UTF-8 JSON (a torn write, a
  flipped bit, a foreign line) or ``parse`` rejects it; every other line
  survives.
* **Read memo** — :class:`AppendLog` re-parses the file only after its
  ``(st_mtime_ns, st_size)`` signature changed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = ["AppendLog", "encode", "open_log", "read_log", "write_log"]

#: Maps one decoded JSON line to its record, or ``None`` to skip the line.
Parse = Callable[[Any], Any]


def encode(records: Iterable[dict], default: Callable | None = None) -> bytes:
    """The log lines of ``records``, newline-terminated, as UTF-8 bytes."""
    return "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":"), default=default) + "\n"
        for r in records
    ).encode("utf-8")


def open_log(path: Path) -> int:
    """An ``O_APPEND`` descriptor on the log at ``path`` (created, with its
    parent directories, if missing).  Raises ``OSError``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)


def write_log(fd: int, data: bytes) -> None:
    """Append ``data`` (whole lines) to the log open on ``fd`` in one
    ``os.write``, terminating an orphaned partial line first, and the last
    line of ``data`` if it lacks its newline.  Raises ``OSError``."""
    if not data:
        return
    size = os.fstat(fd).st_size
    if size > 0 and os.pread(fd, 1, size - 1) != b"\n":
        data = b"\n" + data
    if not data.endswith(b"\n"):
        data += b"\n"
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def read_log(path: Path, parse: Parse) -> list:
    """``parse`` of every UTF-8 JSON line of the log at ``path`` that it
    does not reject, in file order.  Raises ``OSError``."""
    out = []
    with open(path, "rb") as fh:
        for raw in fh:
            try:
                obj = json.loads(raw.decode("utf-8"))
            except ValueError:  # UnicodeDecodeError, JSONDecodeError
                continue
            record = parse(obj)
            if record is not None:
                out.append(record)
    return out


class AppendLog:
    """One log file at ``path`` whose records are the lines ``parse`` accepts."""

    def __init__(self, path: str | os.PathLike, parse: Parse) -> None:
        self.path = Path(path)
        self.parse = parse
        self._memo: tuple[tuple[int, int], list] | None = None

    def append(self, records: Iterable[dict]) -> None:
        """Append ``records`` in one write (nothing, not even the file, for
        none).  Raises ``OSError``."""
        data = encode(records)
        if not data:
            return
        fd = open_log(self.path)
        try:
            write_log(fd, data)
        finally:
            os.close(fd)

    def read(self) -> list:
        """Every valid record in file order; ``[]`` when the file cannot
        be found.  Raises ``OSError`` when it cannot be read."""
        try:
            st = os.stat(self.path)
        except OSError:
            return []
        sig = (st.st_mtime_ns, st.st_size)
        if self._memo is None or self._memo[0] != sig:
            self._memo = (sig, read_log(self.path, self.parse))
        return list(self._memo[1])

    def delete(self) -> bool:
        """Delete the log file; returns whether anything was removed."""
        self._memo = None
        try:
            self.path.unlink()
            return True
        except FileNotFoundError:
            return False
