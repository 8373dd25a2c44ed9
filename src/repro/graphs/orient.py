"""Low out-degree orientations (§3 "O(alpha)-Orientation") and relabeling.

Two orderings are provided:

* ``degree_order``   — order by (degree, id); the cheap heuristic, used by
  the PKT baseline.
* ``degeneracy_order`` — exact minimum-degree peeling (k-core order),
  the (1,2) nucleus peel run as a frontier peel of its own: a round's
  candidates are the live neighbours of the previous round's peeled
  vertices, and only when none qualifies does the level rise, by one
  scan of the live vertices (at most d + 1 scans); out-degree bounded
  by the degeneracy d <= 2*alpha - 1. The peel is vectorized per round,
  and a round costs a fixed number of numpy calls: a peeled vertex's
  degree becomes a sentinel that no later loss brings down to a level,
  so no live mask is kept; the round's neighbour lists are gathered
  from the offsets at once, one ``np.subtract.at`` lowers their
  degrees, and only the next frontier is deduplicated.

The decomposition orients by degeneracy (``make_rank``): it is the
O(alpha)-orientation the paper's work bound needs. The paper's
Goodrich-Pszona order only improves span, which this implementation
does not charge to orientation, so it is not provided.

``relabel`` renames vertices by orientation rank (§5.4 graph
relabeling), so clique vertices are discovered in increasing label order
and no per-clique re-sorting is needed. It renames a CSR by one sort
of its renamed arc keys, without rebuilding it from edges.
"""
from __future__ import annotations

import numpy as np

from .csr import CSR

__all__ = [
    "degree_order",
    "degeneracy_order",
    "make_rank",
    "relabel",
]


def degree_order(csr: CSR) -> np.ndarray:
    """rank[v] = position of v when sorted by (degree, id)."""
    order = np.lexsort((np.arange(csr.n), csr.degrees()))
    rank = np.empty(csr.n, dtype=np.int64)
    rank[order] = np.arange(csr.n)
    return rank


def degeneracy_order(csr: CSR) -> tuple[np.ndarray, int]:
    """Exact degeneracy order; returns (rank, degeneracy).

    This is the (1,2) nucleus peel, round-synchronous: each round ranks,
    in id order, every live vertex whose live degree is at most the
    level k, and the level rises to the minimum live degree only when no
    live vertex is at or below it. A vertex peeled at level k has at
    most k live neighbours, so its out-degree is at most the degeneracy,
    the last level reached.

    The peel keeps a frontier instead of buckets: after a round only its
    live neighbours lost degree, so those of them now at or below k are
    the next round, exactly. Only when the frontier empties is every
    live degree above k; then one scan of the compacted live set raises
    k to the minimum live degree and takes the vertices at it as the
    next round. Each scan reaches a new level in 0..d, so there are at
    most d + 1 scans of O(n) each; ``Bucketing`` is not involved.

    Most rounds peel a few vertices, so a round is kept to a fixed
    number of numpy calls:

    * a peeled vertex's degree becomes the sentinel ``2n + 2``. It loses
      at most n - 1 more, so it stays above ``n + 2``, above every live
      degree and every level: the level-rise scan keeps ``deg < n + 2``
      and no live mask is kept;
    * the round's neighbour lists are read straight from ``offsets``,
      with one ``cumsum`` and one ``repeat``;
    * one ``np.subtract.at`` lowers every gathered vertex by one degree
      per listing, peeled or not;
    * only the gathered vertices now at or below k are deduplicated, by
      an in-place sort and an adjacent compare, into the next frontier
      in id order.
    """
    n = csr.n
    offsets, nbrs = csr.offsets, csr.nbrs
    ends = offsets[1:]
    deg = np.diff(offsets)
    dead = 2 * n + 2
    rank = np.empty(n, dtype=np.int64)
    ids = live = np.arange(n)
    peeled = live[:0]
    pos = k = 0
    while pos < n:
        if not len(peeled):  # frontier empty: k rises to the minimum live degree
            live = live[deg[live] < dead - n]
            live_deg = deg[live]
            k = int(live_deg.min())
            peeled = live[live_deg == k]
        rank[peeled] = ids[pos : pos + len(peeled)]
        pos += len(peeled)
        deg[peeled] = dead
        hi = ends[peeled]  # the round's neighbour lists, read in one gather
        cnt = hi - offsets[peeled]
        at = (hi - cnt.cumsum()).repeat(cnt)  # list start less the arcs before it
        at += np.arange(len(at))
        w = nbrs[at]
        np.subtract.at(deg, w, 1)
        w = w[deg[w] <= k]  # peeled vertices stay above every level
        w.sort()
        first = np.empty(len(w), dtype=bool)  # the first of each run of equal ids
        first[:1] = True
        np.not_equal(w[1:], w[:-1], out=first[1:])
        peeled = w[first]
    return rank, k


def make_rank(csr: CSR) -> np.ndarray:
    """The orientation rank of the decomposition: the degeneracy order."""
    return degeneracy_order(csr)[0]


def relabel(csr: CSR, rank: np.ndarray) -> tuple[CSR, np.ndarray]:
    """Rename vertices so that vertex id == orientation rank (§5.4).

    Returns (the relabeled CSR, perm) where perm[new_id] = old_id,
    letting callers translate clique vertices back to original ids. The
    CSR is relabeled by one sort of its renamed arc keys
    ``rank[src] * n + rank[dst]``: the graph is already validated and
    deduplicated, so it is not rebuilt from edges.
    """
    perm = np.empty(len(rank), dtype=np.int64)
    perm[rank] = np.arange(len(rank))
    keys = np.sort(rank[csr.arc_src] * csr.n + rank[csr.nbrs])
    return CSR.from_keys(csr.n, keys), perm
