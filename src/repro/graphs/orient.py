"""Low out-degree orientations (§3 "O(alpha)-Orientation") and relabeling.

Three orderings are provided, mirroring the options in Shi et al. [60]:

* ``degree_order``   — order by (degree, id); the cheap heuristic.
* ``degeneracy_order`` — exact minimum-degree peeling (k-core order),
  run as the (1,2) nucleus peel on the same ``Bucketing`` structure as
  every (r,s) decomposition; out-degree bounded by the degeneracy
  d <= 2*alpha - 1.
* ``goodrich_pszona_order`` — round-based: repeatedly remove the
  epsilon-fraction of lowest-degree vertices; O(log n) rounds, constant-
  factor approximation of the degeneracy ordering (the parallel-friendly
  variant analysed in the paper).

Both peels are vectorized per round: the neighbours of every vertex
peeled in a round are read with one ``CSR.gather``.

``relabel`` renames vertices by orientation rank (§5.4 graph
relabeling), so clique vertices are discovered in increasing label order
and no per-clique re-sorting is needed.
"""
from __future__ import annotations

import numpy as np

from ..bucketing import Bucketing
from .csr import CSR

__all__ = [
    "degree_order",
    "degeneracy_order",
    "goodrich_pszona_order",
    "make_rank",
    "relabel",
]


def degree_order(csr: CSR) -> np.ndarray:
    """rank[v] = position of v when sorted by (degree, id)."""
    order = np.lexsort((np.arange(csr.n), csr.degrees()))
    rank = np.empty(csr.n, dtype=np.int64)
    rank[order] = np.arange(csr.n)
    return rank


def _live_neighbour_counts(
    csr: CSR, vs: np.ndarray, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct live neighbours of the vertices ``vs``, and how many of
    ``vs`` each one is adjacent to."""
    _, w = csr.gather(vs)
    return np.unique(w[alive[w]], return_counts=True)


def degeneracy_order(csr: CSR) -> tuple[np.ndarray, int]:
    """Exact degeneracy order; returns (rank, degeneracy).

    This is the (1,2) nucleus peel on ``Bucketing``: each round takes the
    minimum bucket, ranks its vertices in id order, and moves their live
    neighbours down by the number of peeled neighbours each one lost. A
    vertex peeled at level k has at most k live neighbours, so its
    out-degree is at most the degeneracy, the last level reached.
    """
    deg = csr.degrees()
    rank = np.empty(csr.n, dtype=np.int64)
    buckets = Bucketing(np.arange(csr.n), deg)
    pos = k = 0
    while not buckets.empty():
        k, peeled = buckets.next_bucket()
        rank[peeled] = pos + np.arange(len(peeled))
        pos += len(peeled)
        nb, lost = _live_neighbour_counts(csr, peeled, buckets.alive)
        deg[nb] -= lost
        buckets.update(nb, deg[nb])
    return rank, k


def goodrich_pszona_order(csr: CSR, *, eps: float = 1.0) -> np.ndarray:
    """Round-based peeling: each round removes the lowest-degree
    n_live * eps / (1 + eps) vertices (at least 1). O(log n) rounds."""
    n = csr.n
    deg = csr.degrees()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    pos = 0
    frac = eps / (1.0 + eps)
    while alive.any():
        live = np.flatnonzero(alive)
        k = max(1, int(len(live) * frac))
        order = live[np.lexsort((live, deg[live]))][:k]
        rank[order] = pos + np.arange(len(order))
        pos += len(order)
        alive[order] = False
        nb, lost = _live_neighbour_counts(csr, order, alive)
        deg[nb] -= lost
    return rank


def make_rank(csr: CSR, kind: str = "degeneracy") -> np.ndarray:
    """Factory over the three orderings."""
    if kind == "degree":
        return degree_order(csr)
    if kind == "degeneracy":
        return degeneracy_order(csr)[0]
    if kind == "goodrich-pszona":
        return goodrich_pszona_order(csr)
    raise ValueError(f"unknown orientation kind: {kind}")


def relabel(edges: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rename vertices so that vertex id == orientation rank (§5.4).

    Returns (relabeled edge array, perm) where perm[new_id] = old_id,
    letting callers translate clique vertices back to original ids.
    """
    new_edges = rank[edges]
    perm = np.empty(len(rank), dtype=np.int64)
    perm[rank] = np.arange(len(rank))
    return new_edges, perm
