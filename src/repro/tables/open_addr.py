"""Vectorized linear-probing open addressing over regions of a shared
cell array.

A *region* is a slice ``[start, start + cap)`` of the cell array used as
one hash table, followed by one explicit *barrier* cell at
``start + cap`` (paper §5.3: barriers between tables hold up-pointers).
Empty cells carry ``EMPTY_BIT`` plus an up-pointer payload. Probing is
modulo ``cap`` (the barrier is never probed), and every region keeps at
least one empty probe-able cell, so searches terminate.

Both operations take parallel per-key ``(start, cap, key)`` arrays, so
one call covers every region of a table level, and both run pass by
pass over only the keys still pending:

* ``insert`` is the batch analogue of the paper's concurrent inserts,
  in the deterministic phase-concurrent style of Shun & Blelloch
  (SPAA 2014). On each pass every pending key tries its current cell;
  among the keys that find an empty cell, the lowest key index claims
  it, and every other pending key moves on one cell. Cells never become
  empty again, so each key stays reachable from its home slot over a
  run of occupied cells, and the layout is a pure function of the input.
* ``region_find`` resolves (region, key) queries the same way: a key
  stops at its own cell (found) or at an empty one (absent).
"""
from __future__ import annotations

import numpy as np

from .packing import EMPTY_BIT, PAYLOAD_MASK

__all__ = ["hash_u64", "capacity_for", "insert", "region_find", "EMPTY_BIT", "PAYLOAD_MASK"]


def hash_u64(x: np.ndarray) -> np.ndarray:
    """Splitmix64-style mixer, vectorized on uint64 (wraps mod 2^64)."""
    x = np.asarray(x, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def capacity_for(count: int | np.ndarray, load: float = 0.5) -> np.ndarray:
    """Probe-able capacity guaranteeing >= 1 empty cell (load < 1);
    elementwise over an array of counts."""
    return np.maximum(2, np.ceil(np.asarray(count) / load).astype(np.int64) + 1)


def _home(keys: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Home offset of each key inside its region."""
    return (hash_u64(keys) % caps.astype(np.uint64)).astype(np.int64)


def insert(
    cells: np.ndarray,
    starts: np.ndarray,
    caps: np.ndarray,
    keys: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Batch insert: key i goes into region ``[starts[i], starts[i] + caps[i])``.

    Keys must be distinct within a region and fewer than its capacity.
    Returns the absolute cell position of every key and the longest
    probe distance from a key's home slot (each pending key advances one
    cell per pass, so it is the number of passes minus one).
    """
    pos = np.empty(len(keys), dtype=np.int64)
    i = np.arange(len(keys))
    s = np.asarray(starts, dtype=np.int64)
    c = np.asarray(caps, dtype=np.int64)
    k = np.asarray(keys, dtype=np.uint64)
    off = _home(k, c)
    passes = 0
    while len(i):
        passes += 1
        p = s + off
        free = np.flatnonzero(cells[p] & EMPTY_BIT)
        # stable sort: the first of equal cells is the lowest key index
        _, first = np.unique(p[free], return_index=True)
        win = free[first]
        cells[p[win]] = k[win]
        pos[i[win]] = p[win]
        go = np.ones(len(i), dtype=bool)
        go[win] = False
        i, s, c, k, off = i[go], s[go], c[go], k[go], off[go] + 1
        off[off == c] = 0
    return pos, max(passes - 1, 0)


def region_find(
    cells: np.ndarray,
    starts: np.ndarray,
    caps: np.ndarray,
    keys: np.ndarray,
) -> np.ndarray:
    """Batch lookup: absolute cell position per (region, key), -1 if absent.

    ``starts``/``caps``/``keys`` are parallel arrays; entries with
    ``starts < 0`` are treated as not-found immediately.
    """
    starts = np.asarray(starts, dtype=np.int64)
    out = np.full(len(starts), -1, dtype=np.int64)
    i = np.flatnonzero(starts >= 0)
    s = starts[i]
    c = np.asarray(caps, dtype=np.int64)[i]
    k = np.asarray(keys, dtype=np.uint64)[i]
    off = _home(k, c)
    while len(i):
        p = s + off
        vals = cells[p]
        hit = vals == k
        out[i[hit]] = p[hit]
        go = ~hit & ((vals & EMPTY_BIT) == 0)
        i, s, c, k, off = i[go], s[go], c[go], k[go], off[go] + 1
        off[off == c] = 0
    return out
