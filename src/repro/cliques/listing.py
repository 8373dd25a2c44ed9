"""Level-synchronous clique listing: REC-LIST-CLIQUES (Algorithm 1) and
the UPDATE listing of Algorithm 2 (lines 15-17), as one frontier kernel.

A frontier holds k-cliques as an (N, k) matrix whose rows are in
orientation order (every v_i -> v_j with i < j is an arc of the
O(alpha)-oriented graph DG), and one step extends all rows at once:
gather the out-neighbours w of each row's last vertex, and keep w only
if (v_j, w) is an arc for every other column j. Arc membership is a
probe of the graph's hash set of ``src * n + dst`` keys
(``CSR.arc_set``), O(1) expected per probe, as with the paper's
adjacency hash tables. Each c-clique is listed exactly once, by its
orientation-order prefix; the level-wide batch is the parallel loop of
Algorithm 1 line 7.

Work matches O(m * alpha^(c-2)) per Shi et al. [60]: every step gathers
O(alpha) candidates per row. The kernel adds its operation count
(candidates gathered plus membership probes) to ``Counters.work``.
``CHUNK`` bounds the frontier: counting runs over root ranges of that
many vertices, UPDATE over blocks of that many peeled r-cliques.
"""
from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable

import numpy as np

from ..graphs.csr import CSR
from ..instrument import Counters
from ..tables.packing import row_ranks

__all__ = [
    "CHUNK",
    "count_cliques",
    "enumerate_cliques",
    "row_ranks",
    "s_counts_per_r_clique",
    "sum_by_row",
    "extend_cliques",
]

CHUNK = 2048  # roots per counting chunk; peeled r-cliques per UPDATE block


def _member(keys: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Boolean mask: q[i] occurs in the sorted array ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(q), dtype=bool)
    i = np.searchsorted(keys, q)
    return keys[np.minimum(i, len(keys) - 1)] == q


def _filter(
    contains: Callable[[np.ndarray], np.ndarray],
    n: int,
    heads: list[np.ndarray],
    i: np.ndarray,
    w: np.ndarray,
    counters: Counters,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep the pairs (i, w) whose key ``head[i] * n + w`` passes the
    membership test ``contains`` for every head column, probing only the
    survivors of earlier columns."""
    for head in heads:
        counters.work += len(w)
        ok = contains(head[i] * n + w)
        i, w = i[ok], w[ok]
    return i, w


def _step(dg: CSR, rows: np.ndarray, counters: Counters) -> np.ndarray:
    """One frontier step: every (k+1)-clique of DG whose orientation-order
    prefix is a row of the (N, k) matrix ``rows``."""
    i, w = dg.gather(rows[:, -1])
    counters.work += len(w)
    i, w = _filter(dg.arc_set.contains, dg.n, list(rows[:, :-1].T), i, w, counters)
    return np.column_stack([rows[i], w])


def _cliques(dg: CSR, roots: np.ndarray, c: int, counters: Counters) -> np.ndarray:
    """(N, c) matrix of the c-cliques rooted at ``roots``, orientation order."""
    rows = np.asarray(roots, dtype=np.int64).reshape(-1, 1)
    for _ in range(c - 1):
        rows = _step(dg, rows, counters)
    return rows


def _chunks(dg: CSR, roots: np.ndarray | None):
    roots = np.arange(dg.n) if roots is None else roots
    roots = np.asarray(roots, dtype=np.int64)
    for lo in range(0, len(roots), CHUNK):
        yield roots[lo : lo + CHUNK]


def count_cliques(dg: CSR, c: int, *, roots: np.ndarray | None = None) -> int:
    """Total number of c-cliques (rooted at ``roots`` if given)."""
    if c < 1:
        return 0
    counters = Counters()
    return sum(len(_cliques(dg, chunk, c, counters)) for chunk in _chunks(dg, roots))


def enumerate_cliques(dg: CSR, c: int) -> np.ndarray:
    """All c-cliques as an (n_c, c) matrix with sorted vertex rows."""
    counters = Counters()
    parts = [_cliques(dg, chunk, c, counters) for chunk in _chunks(dg, None)]
    out = np.concatenate(parts) if parts else np.empty((0, c), dtype=np.int64)
    out.sort(axis=1)
    return out


def sum_by_row(rows: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows (lexicographic order) and the summed weights of each,
    in the weights' dtype (integer sums are exact below 2^53)."""
    rank, uniq = row_ranks(rows, n)
    sums = np.bincount(rank, weights=weights, minlength=len(uniq))
    return uniq, sums.astype(weights.dtype, copy=False)


def s_counts_per_r_clique(
    dg: CSR,
    r: int,
    s: int,
    *,
    roots: np.ndarray | None = None,
    counters: Counters | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """s-clique count of every r-clique (COUNT-FUNC of Algorithm 2).

    Returns (vmat, cnts): the lexicographically sorted (n_r, r) matrix of
    r-cliques with sorted vertex rows, and their int64 s-clique counts.
    r-cliques with no incident s-clique are included (they form the
    0-bucket). Every s-clique extends exactly one r-clique (its first r
    vertices in orientation order), so the s-level frontier is grown from
    the r-level one; each s-clique then adds 1 to each of its C(s, r)
    r-subsets through one ``bincount`` over dense row ranks.

    With ``roots`` (the Spark fan-out unit), only r- and s-cliques rooted
    there are listed, so an s-clique may add to an r-clique rooted
    elsewhere; such partial counts are summed downstream by ``sum_by_row``.
    """
    counters = counters if counters is not None else Counters()
    subs = np.array(list(combinations(range(s), r)), dtype=np.int64)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for chunk in _chunks(dg, roots):
        r_rows = _cliques(dg, chunk, r, counters)
        s_rows = r_rows
        for _ in range(s - r):
            s_rows = _step(dg, s_rows, counters)
        r_rows = np.sort(r_rows, axis=1)
        sub_rows = np.sort(s_rows, axis=1)[:, subs].reshape(-1, r)
        weights = np.zeros(len(r_rows) + len(sub_rows), dtype=np.int64)
        weights[len(r_rows) :] = 1
        parts.append(sum_by_row(np.concatenate([r_rows, sub_rows]), weights, dg.n))
    if not parts:
        return np.empty((0, r), dtype=np.int64), np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return parts[0]
    return sum_by_row(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]), dg.n
    )


def extend_cliques(
    und: CSR,
    dg: CSR,
    A_rows: np.ndarray,
    need: int,
    counters: Counters | None = None,
) -> np.ndarray:
    """Every s-clique containing each r-clique of A, where need = s - r
    (UPDATE, Algorithm 2 lines 15-17, batched over the peeled set A).

    Returns a (found, r + need) matrix: each row is its source row of
    ``A_rows`` followed by the extra vertices, so an s-clique appears once
    per r-clique of A it contains. The first level is the undirected
    neighbours of each row's minimum-degree vertex, filtered to the common
    neighbourhood I_R of the row (the O(min_i deg(v_i)) work of Lemma
    4.1); the extra vertices are then listed as cliques of DG inside I_R,
    with candidates also tested for membership in their row's I_R. That
    test stays a binary search over the chunk's sorted I_R keys: probing
    ``und.arc_set`` once per vertex of the row instead measured 8.8%
    slower on the dblp-25 graph at (2,5).
    """
    counters = counters if counters is not None else Counters()
    A_rows = np.asarray(A_rows, dtype=np.int64)
    r = A_rows.shape[1]
    n = und.n
    parts = []
    for lo in range(0, len(A_rows), CHUNK):
        B = A_rows[lo : lo + CHUNK]
        deg = und.offsets[B + 1] - und.offsets[B]
        others = np.ones(B.shape, dtype=bool)
        others[np.arange(len(B)), deg.argmin(axis=1)] = False
        i, w = und.gather(B[~others])
        counters.work += len(w)
        heads = list(B[others].reshape(len(B), r - 1).T)
        i, w = _filter(und.arc_set.contains, n, heads, i, w, counters)
        in_first = partial(_member, i * n + w)  # keys sorted: i, then w ascending
        src, ext = i, w.reshape(-1, 1)
        for _ in range(need - 1):
            j, x = dg.gather(ext[:, -1])
            counters.work += len(x)
            j, x = _filter(in_first, n, [src], j, x, counters)
            j, x = _filter(dg.arc_set.contains, n, list(ext[:, :-1].T), j, x, counters)
            src, ext = src[j], np.column_stack([ext[j], x])
        parts.append(np.column_stack([B[src], ext]))
    found = np.concatenate(parts) if parts else np.empty((0, r + need), dtype=np.int64)
    counters.scliques_discovered += len(found)
    return found
