"""Graph contraction for (2,3) nucleus decomposition (paper §5.6).

Every arc of the undirected CSR carries its edge's r-clique id in
``arc_id``, so ``Bucketing.round`` (each id's peel round, -1 while
live) is all the peel state the heuristic reads. A check
runs once the edges peeled since the last check reach 2n. A vertex
qualifies when the arcs it lost since the last contraction, those whose
edge was peeled after that round, are at least a quarter of its
degree; the degree is the current CSR's, since the graph changes only
at a contraction. The adjacency lists of qualifying vertices are
filtered of peeled edges with one masked copy, which drops the same
arcs from ``arc_id``, shrinking later intersection work. Only valid for
r = 2: a peeled r-clique for r > 2 has no single edge to remove.

The arc ids also serve UPDATE at every r = 2 call, contracting or not:
they are the T ids of the completions that its faces, the vertices of
the current graph, carry (``listing.Faces``), so the state is built
whenever r = 2.
"""
from __future__ import annotations

import numpy as np

from ..graphs.csr import CSR

__all__ = ["ContractionState", "maybe_contract"]


class ContractionState:
    def __init__(self, und: CSR, row_ids: np.ndarray):
        """``row_ids``: table T's id of each of und's edges (u, v), u < v, in
        lexicographic order, the order counting lists the r-cliques at r = 2.

        The arcs u -> v, u < v, are already in that order; the arcs
        v -> u take one argsort. Asking DG's arc map for each of them
        instead costs more: 0.71 against 0.40 ms on skitter-23's graph
        and 55 against 41 ms at ``rmat(17, 1M)``, on a 4-core x86 box."""
        src, nbrs = und.arc_src, und.nbrs
        lower = src < nbrs  # arcs (u, v), u < v, already in that order
        upper = np.flatnonzero(~lower)
        self.arc_id = np.empty(len(nbrs), dtype=np.int64)
        self.arc_id[lower] = row_ids
        # an arc v -> u, u < v, keyed u*n + v sorts into the same order
        self.arc_id[upper[np.argsort(nbrs[upper] * und.n + src[upper])]] = row_ids
        self.checked = 0  # edges peeled at the last check
        self.since = -1  # round of the last contraction
        self.contractions = 0


def maybe_contract(
    und: CSR, state: ContractionState, peeled: np.ndarray, round_no: int, finished: int
) -> CSR:
    """Apply the §5.6 heuristic after round ``round_no``, with ``finished``
    edges peeled so far; returns the (possibly new) undirected CSR."""
    if finished - state.checked < 2 * und.n:
        return und
    state.checked = finished
    src = und.arc_src
    at = peeled[state.arc_id]
    lost = np.bincount(src[at > state.since], minlength=und.n)
    qualify = (lost * 4 >= np.maximum(und.degrees(), 1)) & (lost > 0)
    if not qualify.any():
        return und
    keep = ~qualify[src] | (at < 0)
    state.arc_id = state.arc_id[keep]
    state.since = round_no
    state.contractions += 1
    return CSR.from_arcs(und.n, src[keep], und.nbrs[keep])
