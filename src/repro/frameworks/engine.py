"""The frontier engine's step vocabulary: edgemap and vertexmap.

The engine (:class:`~repro.frameworks.vectorized.VectorizedEngine`, and
the ``parallel`` backend built on it) mirrors the Ligra programming model:

* ``edgemap`` applies a gather/reduce/apply triple (an :class:`EdgeOp`)
  to every edge whose source is active, producing the next frontier from
  the destinations that changed.  It picks *push* (iterate the out-edges
  of the sparse frontier, CSR) or *pull* (sweep all destinations'
  in-edges, CSC) by Beamer's direction-reversal heuristic — active
  out-edges above ``|E| / 20`` means pull — unless the algorithm pins a
  direction.
* ``vertexmap`` applies a vertex function to the active set.

Execution is *semantic*: updates use vectorized numpy kernels and produce
bit-exact algorithm results.  Performance is *traced, then priced*: every
call appends an :class:`~repro.frameworks.trace.IterationRecord` with
per-partition work counters, and the framework personalities convert the
trace into seconds with the machine model.  (Running 48 real Python threads
would measure the GIL, not the paper's load-balance effect.)

The reduction algebra covers the paper's eight algorithms:

=========  ====================================  =====================
reduce     result (per destination)              used by
=========  ====================================  =====================
``add``    sum, in ``np.add.at`` order           PR, PRD, SPMV, BP
``min``    minimum                               BFS, BF, CC
``or``     maximum (0/1 flags)                   BFS (pull visited)
=========  ====================================  =====================

This module holds what every engine shares: :class:`EdgeOp`,
:func:`gather_rows`, the direction threshold and the sample cap of the
per-step stream-miss measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.graph.csr import INDEX_DTYPE

__all__ = ["EdgeOp", "gather_rows"]


#: Direction-reversal threshold: pull when active out-edges exceed |E| / 20.
DIRECTION_THRESHOLD_DENOM = 20

#: Sample cap for per-record stream locality measurement.
_MISS_SAMPLE = 100_000


def gather_rows(offsets: np.ndarray, adj: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the adjacency lists of ``rows`` from a compressed structure.

    Returns ``(flat_positions, row_of_each)`` where ``adj[flat_positions]``
    are the concatenated neighbour lists and ``row_of_each`` repeats each
    row id by its degree.  ``rows`` may be in any order and may repeat;
    the lists come out in ``rows`` order.  Fully vectorized: output slot
    ``k`` of row ``i`` holds ``k + (starts[i] - first_slot[i])``, so one
    ``np.repeat`` of that per-row shift, added onto an ``arange``, gives
    every position.
    """
    starts = offsets[rows]
    counts = offsets[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE)
    first_slot = np.cumsum(counts) - counts
    flat = np.arange(total, dtype=INDEX_DTYPE)
    flat += np.repeat(starts - first_slot, counts)
    return flat, np.repeat(rows, counts)


@dataclass(frozen=True)
class EdgeOp:
    """A gather/reduce/apply triple — the algorithm-specific payload.

    Attributes
    ----------
    gather:
        ``gather(src_ids, dst_ids, state) -> float64 per-edge values``.
        ``src_ids``/``dst_ids`` are the endpoints of each *active* edge.
    reduce:
        ``"add"``, ``"min"`` or ``"or"``.
    apply:
        ``apply(touched_dsts, reduced_values, state) -> changed mask over
        touched_dsts``.  Must mutate ``state`` in place; the returned mask
        selects the destinations entering the next frontier.
    identity:
        Identity element of the reduction (0 for add, +inf for min...).
    """

    gather: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    reduce: str
    apply: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    identity: float

    def __post_init__(self) -> None:
        if self.reduce not in ("add", "min", "or"):
            raise SimulationError(f"unsupported reduction {self.reduce!r}")
