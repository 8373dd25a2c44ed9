"""Low out-degree orientations (§3 "O(alpha)-Orientation") and relabeling.

Two orderings are provided:

* ``degree_order``   — order by (degree, id); the cheap heuristic, used by
  the PKT baseline.
* ``degeneracy_order`` — exact minimum-degree peeling (k-core order),
  the (1,2) nucleus peel run as a frontier peel of its own: a round's
  candidates are the live neighbours of the previous round's peeled
  vertices, and only when none qualifies does the level rise, by one
  scan of the live vertices (at most d + 1 scans); out-degree bounded
  by the degeneracy d <= 2*alpha - 1. The peel is vectorized per round:
  the neighbours of every vertex peeled in a round are read with one
  ``CSR.gather``.

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
    """
    n = csr.n
    deg = csr.degrees()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    live = np.arange(n)
    peeled = live[:0]
    pos = k = 0
    while pos < n:
        if not len(peeled):  # frontier empty: k rises to the minimum live degree
            live = live[alive[live]]
            live_deg = deg[live]
            k = int(live_deg.min())
            peeled = live[live_deg == k]
        rank[peeled] = pos + np.arange(len(peeled))
        pos += len(peeled)
        alive[peeled] = False
        _, w = csr.gather(peeled)  # the live neighbours lose one degree per peeled neighbour
        nb, lost = np.unique(w[alive[w]], return_counts=True)
        deg[nb] -= lost
        peeled = nb[deg[nb] <= k]
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
