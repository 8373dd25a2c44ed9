"""Frontier peeling of r-cliques by s-clique count (paper §4, Algorithm 2).

The structure is the whole peel state, indexed by r-clique id, the
r-clique's row 0..n_r-1 in counting's order: ``count``
holds the s-clique counts, which the caller lowers in place (UPDATE-FUNC)
and reports through ``update``; ``round`` holds the round each id was
peeled in, -1 while live; ``levels`` holds each round's level k, so an
id's core number is ``levels[round[id]]``. Each round extracts every live
id at or below k: an id whose count drops below k joins the current
level, so batch peeling gives one-at-a-time core numbers. After an
extraction no live id is at or below k, and counts only fall, so the
next round is the frontier: the live ids updates brought to k or below.
Only an empty frontier scans the compacted live ids, raising k to their
minimum count and taking every id at it. An id is scanned only at level
rises up to its core number: at most rho scans, costing
sum_R (core(R) + 1) <= C(s, r) * n_s + n_r, within counting's work.
"""
from __future__ import annotations

import numpy as np

__all__ = ["Bucketing"]


class Bucketing:
    def __init__(self, counts: np.ndarray):
        """counts: the s-clique count of each r-clique id 0..n_r-1."""
        self.count = np.array(counts, dtype=np.int64)
        self.round = np.full(len(self.count), -1, dtype=np.int64)
        self.levels: list[int] = []
        self.k = 0
        self.n_remaining = len(self.count)
        self.bucket_moves = 0  # live ids whose count an update lowered
        self.rematerializations = 0  # level-rise scans of the live ids
        self._live = np.arange(len(self.count))
        self._frontier = [np.flatnonzero(self.count <= 0)]  # ids at or below the level k = 0

    def empty(self) -> bool:
        return self.n_remaining == 0

    def next_bucket(self) -> tuple[int, np.ndarray]:
        """Extract every live id at or below k, stamping their round."""
        ids = np.unique(np.concatenate([self._live[:0], *self._frontier]))  # [:0]: typed if empty
        self._frontier = []
        if not len(ids):  # frontier empty: k rises to the minimum live count
            live = self._live = self._live[self.round[self._live] < 0]
            if not len(live):
                raise RuntimeError("next_bucket on empty structure")
            self.rematerializations += 1
            counts = self.count[live]
            self.k = int(counts.min())
            ids = live[counts == self.k]
        self.round[ids] = len(self.levels)
        self.levels.append(self.k)
        self.n_remaining -= len(ids)
        return self.k, ids

    def update(self, ids: np.ndarray) -> None:
        """Report distinct ids whose counts were lowered; the live ones at or
        below k join the frontier, peeled ones keep their round."""
        ids = np.asarray(ids, dtype=np.int64)
        ids = ids[self.round[ids] < 0]
        self.bucket_moves += len(ids)
        self._frontier.append(ids[self.count[ids] <= self.k])
