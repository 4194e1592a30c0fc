"""Persistent experiment-results store: append-only JSONL keyed by content.

The artifact cache (:mod:`repro.store.cache`) makes *inputs* — graphs,
orderings, partitions — replayable across processes.  This module does the
same for *outputs*: every :class:`~repro.experiments.runner.ExperimentResult`
is one line of JSON in an append-only ``.jsonl`` file, tagged with a cell
key computed by the same canonical content-hash scheme the artifact cache
uses (:func:`repro.store.cache.artifact_key` over a sorted-JSON payload).

Two properties fall out of that design:

* **Resumability** — an interrupted or re-invoked sweep reads the store,
  skips every cell whose key is already present, and computes only the
  rest.  A line truncated by a crash mid-write, or one that no longer
  decodes, is simply recomputed; nothing else is lost.
* **Replayability** — ``metrics.tables`` (and the ``sweep report`` CLI)
  rebuild every table from disk without re-running anything, because the
  serialization round-trip is lossless (floats survive bit-identically
  through JSON's shortest-exact ``repr`` rendering).

The line format, the crash-safe append and the tolerant, memoized read
belong to :mod:`repro.store.appendlog`; this module keeps only what makes
a line a result (a key and a parsable :class:`ExperimentResult`).  The
store has a single writer (the sweep orchestrator in the parent process);
workers return serializable results and never touch the file.
"""

from __future__ import annotations

import os

from repro.errors import ReproError, ResultsError
from repro.experiments.runner import ExperimentResult
from repro.machine.models import DEFAULT_MACHINE

__all__ = ["RESULTS_KEY_VERSION", "ResultsStore", "result_cell_key"]

#: Version component of every cell key.  The key otherwise hashes only the
#: cell's *inputs* (dataset, params, algorithm, framework, ordering,
#: machine), so a change to the pricing model itself would replay stale
#: results forever — bump this whenever the cost model / personalities /
#: engine accounting change what a cell's numbers mean, and every store
#: invalidates at once.  v2: the machine dimension joined the key (pre-v2
#: results carried an implicit paper-xeon machine).
RESULTS_KEY_VERSION = 2


def result_cell_key(
    dataset: str,
    algorithm: str,
    framework: str,
    ordering: str,
    params: dict | None = None,
    algo_kwargs: dict | None = None,
    machine: str = DEFAULT_MACHINE,
) -> str:
    """Content-hash key of one sweep cell.

    Uses the artifact cache's canonical scheme (``kind="result"``), so the
    key changes iff any identifying input changes: the dataset and its
    build parameters (scale, seed, ...), the algorithm and its kwargs, the
    framework, the ordering, the machine personality the cell is priced
    on — or :data:`RESULTS_KEY_VERSION`.
    """
    from repro.store.cache import artifact_key

    return artifact_key(
        "result",
        {
            "version": RESULTS_KEY_VERSION,
            "dataset": dataset,
            "params": dict(params or {}),
            "algorithm": algorithm,
            "framework": framework,
            "ordering": ordering,
            "machine": machine,
            "algo_kwargs": dict(algo_kwargs or {}),
        },
    )


def _entry(payload) -> tuple[str, dict | None, ExperimentResult] | None:
    """``(key, meta, result)`` of one stored line; ``None`` for a foreign
    or schema-mismatched line, which reads as "cell not done"."""
    try:
        result = ExperimentResult.from_dict(payload["result"])
        return str(payload["key"]), payload.get("meta"), result
    except (KeyError, TypeError, ReproError):
        return None


class ResultsStore:
    """An append-only JSONL sink of keyed :class:`ExperimentResult` lines.

    Each line is ``{"key": <40-hex cell key>, "result": {...}}``.  Reads
    are tolerant: unreadable lines (a write truncated by a kill, a flipped
    bit, a foreign line) are skipped, and a duplicated key keeps its first
    occurrence — append-only means the first write is the completed
    computation.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        from repro.store.appendlog import AppendLog

        self._log = AppendLog(path, _entry)
        self.path = self._log.path

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def append(self, key: str, result: ExperimentResult, meta: dict | None = None) -> None:
        """Persist one completed cell (atomic at line granularity).

        The line goes out in a single write, so a crash can only ever
        truncate the *final* line — which the tolerant reader treats as
        "cell not done", and the next append terminates.  ``meta`` rides
        along untouched (the orchestrator records the cell's dataset +
        build params so reports can tell heterogeneous sweeps apart).
        """
        payload = {"key": str(key), "result": result.to_dict()}
        if meta is not None:
            payload["meta"] = meta
        try:
            self._log.append([payload])
        except OSError as exc:
            raise ResultsError(f"cannot append to results store {self.path}: {exc}") from exc

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def entries(self) -> list[tuple[str, dict | None, ExperimentResult]]:
        """``(key, meta, result)`` for every valid line, first key wins.

        The parse is memoized against the file's stat signature, so
        repeated queries (``len``, ``keys``, resume scans) re-read the
        file only after it actually changed.
        """
        try:
            entries = self._log.read()
        except OSError as exc:
            raise ResultsError(f"cannot read results store {self.path}: {exc}") from exc
        first: dict[str, tuple[str, dict | None, ExperimentResult]] = {}
        for entry in entries:
            first.setdefault(entry[0], entry)
        return list(first.values())

    def records(self) -> dict[str, ExperimentResult]:
        """``{key: result}`` for every valid line, first occurrence wins."""
        return {key: result for key, _, result in self.entries()}

    def dedup_stats(self) -> dict[str, int]:
        """Trace-dedup provenance of the stored cells.

        Each line's meta records whether its cell was priced from a trace
        **replayed** out of the persistent trace store or from a **fresh**
        execution (the trace-store miss path); lines written before the
        meta existed count as **untagged**.  The result flag itself is
        deliberately *not* part of the persisted ``result`` payload — a
        replayed cell is byte-identical to an executed one — so provenance
        lives here, in the meta channel.
        """
        stats = {"replayed": 0, "fresh": 0, "untagged": 0}
        for _key, meta, _result in self.entries():
            flag = (meta or {}).get("trace_replayed")
            if flag is None:
                stats["untagged"] += 1
            elif flag:
                stats["replayed"] += 1
            else:
                stats["fresh"] += 1
        return stats

    def keys(self) -> set[str]:
        return {key for key, _, _ in self.entries()}

    def load(self) -> list[ExperimentResult]:
        """All stored results in file order (deduplicated by key)."""
        return [result for _, _, result in self.entries()]

    def __len__(self) -> int:
        return len(self.records())

    def __contains__(self, key: str) -> bool:
        return key in self.records()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultsStore(path={str(self.path)!r})"
