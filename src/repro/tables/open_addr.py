"""Vectorized linear-probing open addressing over regions of a shared
cell array: the one hash scheme behind table T and DG's arc map.

A *region* is a slice ``[start, start + cap)`` of the cell array used as
one hash table; in table T each is followed by one explicit *barrier*
cell at ``start + cap`` (paper §5.3: barriers between tables hold
up-pointers). Keys are below 2^63 and empty cells carry ``EMPTY_BIT``
(plus T's up-pointer payload), so a cell ``v`` is occupied exactly when
``v < EMPTY_BIT``. A key's home is ``home(key, cap)``; probing wraps at
the region end (the barrier is never probed), and every region keeps an
empty probe-able cell, so searches terminate.

``insert`` and ``region_find`` take per-key ``(start, cap, key)`` arrays,
or one scalar region, so one call covers every region of a table level,
and both carry only the keys still pending from pass to pass:

* ``insert`` is the batch analogue of the paper's concurrent inserts,
  in the deterministic phase-concurrent style of Shun & Blelloch
  (SPAA 2014). On each pass every pending key writes itself into its
  current cell if that cell is empty; of the keys writing one cell the
  lowest key index lands, and the others move on one cell. Cells never
  become empty again, so each key stays reachable from its home over a
  run of occupied cells, and the layout is a pure function of the input.
* ``region_find`` stops each key at its own cell (found) or an empty
  one (absent); one gather stops most keys at home.

``KeySet`` is the one-region case: a set of keys at load <= 1/4 that
also maps each key to its index in the array it was built from; over a
DG's arc keys that index is the arc's CSR position.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .packing import EMPTY_BIT, PAYLOAD_MASK

__all__ = ["home", "capacity_for", "insert", "region_find", "KeySet", "EMPTY_BIT", "PAYLOAD_MASK"]

# 0-d arrays, not numpy scalars: an array times a 0-d array skips numpy's
# scalar-operand conversion, a fixed cost paid by every probe call
FIB = np.array(0x9E3779B97F4A7C15, dtype=np.uint64)  # 2^64 / golden ratio: Fibonacci hashing
MAX_CAP = 1 << 32  # home() multiplies a 32-bit hash by the capacity in 64 bits
_32 = np.array(32, dtype=np.uint64)


def home(keys: np.ndarray, caps) -> np.ndarray:
    """Home offset in ``[0, cap)`` of each key: ``((key * FIB mod 2^64) >> 32)
    * cap >> 32``, a multiply-shift range reduction with no modulo, for
    ``cap < 2^32`` (one per key, or one for all). For ``cap = 2^b`` it is
    the top ``b`` bits of ``key * FIB`` (Fibonacci hashing)."""
    h = np.asarray(keys, dtype=np.uint64) * FIB
    h >>= _32
    h *= np.asarray(caps, dtype=np.uint64)
    h >>= _32
    return h.view(np.int64)


def capacity_for(count: int | np.ndarray) -> np.ndarray:
    """Probe-able capacity 2 * count + 1 (at least 2): load below 1/2 and
    >= 1 empty cell; elementwise over an array of counts."""
    return np.maximum(2, 2 * np.asarray(count, dtype=np.int64) + 1)


def insert(cells: np.ndarray, starts, caps, keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Batch insert: key i goes into region ``[starts[i], starts[i] + caps[i])``.

    Keys must be below 2^63, distinct within a region and fewer than its
    capacity; capacities must be below 2^32. Returns the absolute cell
    position of every key and the longest probe distance from a key's
    home (each pending key advances one cell per pass, so it is the
    number of passes minus one).
    """
    k = np.asarray(keys, dtype=np.uint64)
    caps = np.asarray(caps, dtype=np.int64)
    if caps.size and caps.max() >= MAX_CAP:
        raise ValueError(f"region capacity {int(caps.max())} must be below 2^32")
    lo = np.broadcast_to(np.asarray(starts, dtype=np.int64), k.shape)
    hi = lo + caps
    p = lo + home(k, caps)
    pos = np.empty(len(k), dtype=np.int64)
    i = np.arange(len(k))
    passes = 0
    while len(i):
        passes += 1
        free = (cells[p] >= EMPTY_BIT).nonzero()[0][::-1]
        # numpy applies repeated-index writes in order, so the last write
        # lands: scattering in reverse, that is the lowest key index
        cells[p[free]] = k[free]
        pos[i] = p  # final for the keys that landed
        go = (cells[p] != k).nonzero()[0]  # integer takes: far cheaper than masks
        i, k, lo, hi, p = i[go], k[go], lo[go], hi[go], p[go] + 1
        p = np.where(p == hi, lo, p)
    return pos, max(passes - 1, 0)


def region_find(cells: np.ndarray, starts, caps, keys: np.ndarray) -> np.ndarray:
    """Batch lookup: absolute cell position per (region, key), -1 if absent.

    ``starts``/``caps`` are per-key arrays parallel to ``keys``, or
    scalars for one region; every start must be a region's start.
    """
    k = np.asarray(keys, dtype=np.uint64)
    p, v = _stop(cells, starts, caps, k)
    return np.where(v == k, p, -1)


def _stop(cells: np.ndarray, starts, caps, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each key's stop cell, its own or the first empty one of its probe
    run, and that cell's content. Only the keys whose home holds another
    key walk on."""
    p = home(k, caps)
    p += starts
    v = cells[p]
    i = ((v < EMPTY_BIT) & (v != k)).nonzero()[0]
    if not len(i):
        return p, v
    walked = i
    lo = starts[i] if np.ndim(starts) else np.full(len(i), starts)
    hi = lo + (caps[i] if np.ndim(caps) else caps)
    q, k = p[i], k[i]
    while len(i):
        q += 1
        q = np.where(q == hi, lo, q)
        u = cells[q]
        p[i] = q
        go = ((u < EMPTY_BIT) & (u != k)).nonzero()[0]  # integer takes: far cheaper than masks
        i, k, lo, hi, q = i[go], k[go], lo[go], hi[go], q[go]
    v[walked] = cells[p[walked]]
    return p, v


class KeySet:
    """Set of distinct non-negative int64 keys with a batched lookup that
    returns each found key's index in the build array: one region of
    ``cap = 2^b >= 4 * len(keys)`` cells (load <= 1/4), and per cell the
    index of the key it holds. At this load most probes settle at the
    home cell; at load ~0.4 the extra passes, mostly for misses, cost all
    of the gain over a binary search of the sorted keys."""

    def __init__(self, keys: np.ndarray):
        self.cap = 1 << max(1, (4 * len(keys) - 1).bit_length())
        self.cells = np.full(self.cap, EMPTY_BIT, dtype=np.uint64)
        keys = np.asarray(keys, dtype=np.int64).view(np.uint64)
        self._pos, _ = insert(self.cells, 0, self.cap, keys)

    @cached_property
    def index(self) -> np.ndarray:
        """Index of the key each cell holds, -1 for an empty cell; built on
        the first ``find``, so a set only ever asked ``contains`` skips
        it. insert rejects cap >= 2^32, so every index is below
        cap / 4 <= 2^29 and fits int32."""
        index = np.full(self.cap, -1, dtype=np.int32)
        index[self._pos] = np.arange(len(self._pos))
        del self._pos
        return index

    def find(self, q: np.ndarray) -> np.ndarray:
        """Index in the build array of each query, -1 where absent, for
        non-negative queries."""
        k = np.ascontiguousarray(q, dtype=np.int64).view(np.uint64)
        return self.index[_stop(self.cells, 0, self.cap, k)[0]]  # an empty stop cell holds -1

    def contains(self, q: np.ndarray) -> np.ndarray:
        """Boolean mask: q[i] is in the set, for non-negative queries;
        ``find(q) >= 0`` without the gather of the indices."""
        k = np.ascontiguousarray(q, dtype=np.int64).view(np.uint64)
        return _stop(self.cells, 0, self.cap, k)[1] == k
