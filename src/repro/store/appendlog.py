"""Crash-safe appends to the repository's append-only JSONL logs."""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["append_lines"]


def append_lines(path: Path, lines: list[str]) -> None:
    """Append ``lines`` (each without its newline) to the log at ``path``.

    The batch goes out in one ``os.write`` on an ``O_APPEND`` descriptor,
    so lines from concurrent appenders never interleave and a partial
    final line can only be the remains of a writer killed mid-write.
    Such an orphan is terminated first: appending straight onto it would
    glue the first new line to the partial bytes, and the tolerant
    readers would drop both.  Raises ``OSError``.
    """
    if not lines:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        orphan = size > 0 and os.pread(fd, 1, size - 1) != b"\n"
        data = ("\n" if orphan else "") + "".join(line + "\n" for line in lines)
        view = memoryview(data.encode("utf-8"))
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)
