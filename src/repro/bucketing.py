"""Julienne-style parallel bucketing structure (Dhulipala et al. [20]).

Maintains the mapping r-clique-id -> bucket (= current s-clique count)
and repeatedly extracts the minimum non-empty bucket. As in Julienne,
only a constant window of the lowest buckets is materialized; ids whose
bucket lies beyond the window sit in an overflow pool and are only
re-bucketed when the window advances past them, which both bounds the
number of bucket moves per id and skips large empty bucket ranges.

Updates are *clamped* at the current level k: peeling can drive a
stored count below k, but the peeling process assigns such ids to the
current bucket (this is what makes batch peeling produce the same core
numbers as one-at-a-time peeling).
"""
from __future__ import annotations

import numpy as np

__all__ = ["Bucketing"]

NUM_OPEN = 16  # width of the materialized window of lowest buckets


class Bucketing:
    def __init__(self, ids: np.ndarray, values: np.ndarray):
        """ids: identifier array (cell positions); values: initial buckets."""
        ids = np.asarray(ids, dtype=np.int64)
        values = np.asarray(values, dtype=np.int64)
        size = int(ids.max()) + 1 if len(ids) else 0
        self.bucket_of = np.full(size, -1, dtype=np.int64)
        self.bucket_of[ids] = values
        self.alive = np.zeros(size, dtype=bool)
        self.alive[ids] = True
        self.k = 0
        self.n_remaining = len(ids)
        self.rematerializations = 0
        self.bucket_moves = 0
        self._window: dict[int, list[np.ndarray]] = {}
        self._far: list[np.ndarray] = [ids]
        self._lo = 0  # window covers [_lo, _lo + NUM_OPEN)
        self._materialize(int(values.min()) if len(values) else 0)

    def _materialize(self, lo: int) -> None:
        """Re-bucket the overflow pool for the window [lo, lo+NUM_OPEN)."""
        self.rematerializations += 1
        self._lo = lo
        pool = (
            np.unique(np.concatenate(self._far)) if self._far else np.empty(0, np.int64)
        )
        self._far = []
        pool = pool[self.alive[pool]]
        vals = self.bucket_of[pool]
        in_window = vals < lo + NUM_OPEN
        self._window = {}
        for b in range(lo, lo + NUM_OPEN):
            sel = pool[vals == b]
            if len(sel):
                self._window[b] = [sel]
        rest = pool[~in_window]
        if len(rest):
            self._far = [rest]
        self.bucket_moves += int(in_window.sum())

    def empty(self) -> bool:
        return self.n_remaining == 0

    def next_bucket(self) -> tuple[int, np.ndarray]:
        """Extract all ids in the minimum non-empty bucket; marks them dead."""
        while True:
            for b in range(max(self.k, self._lo), self._lo + NUM_OPEN):
                if b in self._window:
                    parts = self._window.pop(b)
                    ids = np.unique(np.concatenate(parts))
                    ids = ids[self.alive[ids] & (self.bucket_of[ids] == b)]
                    if len(ids) == 0:
                        continue
                    self.k = b
                    self.alive[ids] = False
                    self.n_remaining -= len(ids)
                    return b, ids
            if not self._far:
                raise RuntimeError("next_bucket on empty structure")
            far_ids = np.unique(np.concatenate(self._far))
            far_ids = far_ids[self.alive[far_ids]]
            if len(far_ids) == 0:
                raise RuntimeError("next_bucket on empty structure")
            self._far = [far_ids]
            lo = int(self.bucket_of[far_ids].min())  # skips empty ranges
            self._materialize(max(lo, self.k))

    def update(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Move live ids to new buckets, clamped at the current level k."""
        ids = np.asarray(ids, dtype=np.int64)
        if len(ids) == 0:
            return
        values = np.maximum(np.asarray(values, dtype=np.int64), self.k)
        live = self.alive[ids]
        ids, values = ids[live], values[live]
        changed = self.bucket_of[ids] != values
        ids, values = ids[changed], values[changed]
        self.bucket_of[ids] = values
        in_window = values < self._lo + NUM_OPEN
        for b in np.unique(values[in_window]):
            self._window.setdefault(int(b), []).append(ids[values == b])
        if (~in_window).any():
            self._far.append(ids[~in_window])
        self.bucket_moves += len(ids)
