"""Clique-key packing into uint64 words.

An r-clique key concatenates its (sorted) vertex ids at
``bits_for(n)`` bits per vertex. Bit 63 is reserved as the
empty/barrier marker of the open-addressing cells (§5.3 "reserving the
top bit of each key"), so at most 63 bits of payload are available:
``w * bits_for(n) <= 63``. When a full r-clique key does not fit, the
one-level table is infeasible — the same space wall the paper hits for
large r — and the table factory raises the number of levels so only the
last-level suffix must fit.

``row_ranks`` packs rows base n instead, into as few int64 keys as
their ranks need, to sort and deduplicate rows of any width.
"""
from __future__ import annotations

import numpy as np

__all__ = ["bits_for", "fits", "pack", "unpack", "row_ranks", "EMPTY_BIT", "PAYLOAD_MASK"]

EMPTY_BIT = np.uint64(1) << np.uint64(63)
PAYLOAD_MASK = ~EMPTY_BIT


def bits_for(n: int) -> int:
    """Bits per vertex id for a graph with n vertices."""
    return max(1, int(np.ceil(np.log2(max(2, n)))))


def fits(n: int, w: int) -> bool:
    """Whether a w-vertex key fits in the 63 payload bits."""
    return w * bits_for(n) <= 63


def pack(vmat: np.ndarray, n: int) -> np.ndarray:
    """Pack each row of the (k, w) vertex matrix into one uint64.

    Rows must be sorted ascending; packing preserves lexicographic
    order, so sorted keys correspond to sorted packed values.
    """
    vmat = np.atleast_2d(np.asarray(vmat, dtype=np.uint64))
    w = vmat.shape[1]
    b = bits_for(n)
    if not fits(n, w):
        raise ValueError(f"{w} vertices at {b} bits/vertex exceed 63 payload bits")
    out = np.zeros(len(vmat), dtype=np.uint64)
    for j in range(w):
        out = (out << np.uint64(b)) | vmat[:, j]
    return out


def unpack(keys: np.ndarray, n: int, w: int) -> np.ndarray:
    """Inverse of ``pack``: (k,) uint64 -> (k, w) int64 vertex matrix."""
    keys = np.asarray(keys, dtype=np.uint64) & PAYLOAD_MASK
    b = np.uint64(bits_for(n))
    mask = (np.uint64(1) << b) - np.uint64(1)
    out = np.empty((len(keys), w), dtype=np.int64)
    for j in range(w - 1, -1, -1):
        out[:, j] = (keys & mask).astype(np.int64)
        keys = keys >> b
    return out


def row_ranks(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense lexicographic ranks of the rows of an (N, k) matrix of
    vertex ids below n, and the distinct rows in rank order.

    Each ``np.unique`` pass packs the previous pass's rank and as many
    further columns as fit into one int64 key, ``prev_rank * n^c + cols``.
    ``bound`` is the key's range: it starts each pass as the previous
    pass's distinct count (1 before the first pass, 0 if N = 0), is
    multiplied by n per packed column, and columns are added while
    ``bound * n < 2^63``.
    Base-n packing preserves lexicographic order, so the ranks are those
    of the full rows. Every pass takes at least one column, which is
    exact as long as N * n < 2^63; packing a whole row at once would
    overflow int64 once n^k > 2^63. Only ranks are asked of
    ``np.unique``: ``return_index`` would force a stable sort, about
    twice as slow, and any row of a rank is that rank's distinct row.
    """
    rows = np.asarray(rows, dtype=np.int64)
    n = int(n)
    N, k = rows.shape
    rank = np.zeros(N, dtype=np.int64)
    bound, j = min(N, 1), 0
    while j < k:
        key, bound, j = rank * n + rows[:, j], bound * n, j + 1
        while j < k and bound * n < 2**63:
            key, bound, j = key * n + rows[:, j], bound * n, j + 1
        u, rank = np.unique(key, return_inverse=True)
        bound = len(u)
    uniq = np.empty((bound, k), dtype=np.int64)
    uniq[rank] = rows  # equal ranks carry equal rows
    return rank.reshape(-1), uniq
