"""Frontier peeling of r-cliques by s-clique count (paper §4, Algorithm 2).

Each round extracts every live id in the minimum bucket, with values
clamped at the current level k: an id whose count drops below k joins
the current bucket, so batch peeling gives one-at-a-time core numbers.
After every extraction no live id is at or below k, so the next bucket
is the frontier: the ids updates brought to k, re-checked as a later
update may raise them. Only an empty frontier scans the compacted live
ids, raising k to their minimum and taking every id at it. An id is
scanned only at level rises up to its core number: at most rho scans,
costing sum_R (core(R) + 1) <= C(s, r) * n_s + n_r, within counting's work.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Bucketing"]


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
        self.bucket_moves = 0  # ids whose value an update changed
        self.rematerializations = 0  # level-rise scans of the live ids
        self._live = np.sort(ids)
        self._frontier = [ids[values <= 0]]  # ids at or below the level k = 0

    def empty(self) -> bool:
        return self.n_remaining == 0

    def next_bucket(self) -> tuple[int, np.ndarray]:
        """Extract all ids in the minimum clamped bucket; marks them dead."""
        ids = np.unique(np.concatenate([self._live[:0], *self._frontier]))  # [:0]: typed if empty
        ids = ids[self.alive[ids] & (self.bucket_of[ids] <= self.k)]
        self._frontier = []
        if not len(ids):  # frontier empty: k rises to the minimum live value
            live = self._live = self._live[self.alive[self._live]]
            if not len(live):
                raise RuntimeError("next_bucket on empty structure")
            self.rematerializations += 1
            vals = self.bucket_of[live]
            self.k = int(vals.min())
            ids = live[vals == self.k]
        self.alive[ids] = False
        self.n_remaining -= len(ids)
        return self.k, ids

    def update(self, ids: np.ndarray, values: np.ndarray) -> None:
        """Store live ids' values clamped at k; those at k join the frontier."""
        ids = np.asarray(ids, dtype=np.int64)
        values = np.maximum(np.asarray(values, dtype=np.int64), self.k)
        live = self.alive[ids]
        ids, values = ids[live], values[live]
        self.bucket_moves += int(np.count_nonzero(self.bucket_of[ids] != values))
        self.bucket_of[ids] = values
        self._frontier.append(ids[values == self.k])
