"""The set U of r-cliques updated in a peeling round, and its §5.5 cost.

Paper §5.5 offers three structures for U: a simple array, a list buffer
and a hash table. All three produce the same U, the sorted distinct ids
whose counts changed this round, so one U serves every kind. They differ
only in how parallel threads would contend for space, which
``contention`` gives to the work-span simulator (instrument.py):

* ``array``       — one shared next-slot cursor: every insertion is a
  fetch-and-add on the same variable, so all of them serialize.
* ``list-buffer`` — per-thread blocks of ``BUFFER_SIZE`` slots, the first
  block per thread pre-assigned: only further block reservations
  serialize, and unused slots are filtered out (work |U|) before U is
  returned.
* ``hash``        — hashing spreads insertions, so nothing serializes,
  but the table is sized from the round's peeled r-cliques, up to the
  n_r ids U can hold, and cleared for reuse.
"""
from __future__ import annotations

import numpy as np

__all__ = ["KINDS", "check_kind", "contention", "make_aggregator"]

KINDS = ("array", "list-buffer", "hash")
BUFFER_SIZE = 64  # list-buffer block size
N_THREADS = 60  # threads of the paper's machine


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"aggregation must be one of {KINDS}, got {kind!r}")


def contention(kind: str, inserted: int, n_peeled: int, per_peel: int, n_ids: int) -> tuple[int, int]:
    """(serialized_ops, clear_work) of one round that inserts ``inserted``
    distinct ids after peeling ``n_peeled`` r-cliques, each updating at
    most ``per_peel`` others; a hash table's clear work is capped by the
    ``n_ids`` ids U can hold, the n_r r-cliques."""
    check_kind(kind)
    if kind == "array":
        return inserted, 0
    if kind == "list-buffer":
        return max(0, -(-inserted // BUFFER_SIZE) - N_THREADS), inserted
    return 0, min(2 * max(1, n_peeled * per_peel), n_ids)


# A class only because nucbench/spans.py wraps begin_round, record and drain by name.
class _BaseU:
    def __init__(self, kind: str, n_ids: int):
        check_kind(kind)
        self.kind = kind
        self.n_ids = n_ids
        self.serialized_ops = 0  # ops that serialize across threads (span cost)
        self.clear_work = 0  # extra parallel work (work cost)
        self._parts: list[np.ndarray] = []
        self._n_peeled = self._per_peel = 0

    def begin_round(self, n_peeled: int, max_updates_per_peel: int) -> None:
        self._parts = []
        self._n_peeled, self._per_peel = n_peeled, max_updates_per_peel

    def record(self, ids: np.ndarray) -> None:
        """Register ids whose count changed (duplicates allowed)."""
        self._parts.append(np.asarray(ids, dtype=np.int64))

    def drain(self) -> np.ndarray:
        """The round's U, sorted and distinct; adds the round's contention."""
        out = np.unique(np.concatenate(self._parts)) if self._parts else np.empty(0, dtype=np.int64)
        self._parts = []
        ser, clear = contention(self.kind, len(out), self._n_peeled, self._per_peel, self.n_ids)
        self.serialized_ops += ser
        self.clear_work += clear
        return out


def make_aggregator(kind: str, n_ids: int) -> _BaseU:
    return _BaseU(kind, n_ids)
