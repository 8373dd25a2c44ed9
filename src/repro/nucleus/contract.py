"""Graph contraction for (2,3) nucleus decomposition (paper §5.6).

When the number of edges peeled since the last contraction reaches 2n,
vertices that lost at least a quarter of their (post-last-contraction)
neighbours get their adjacency lists filtered of peeled edges with a
parallel-filter, shrinking future intersection work. Only valid for
r = 2: a peeled r-clique for r > 2 has no single edge to remove.
"""
from __future__ import annotations

import numpy as np

from ..graphs.csr import CSR

__all__ = ["ContractionState", "maybe_contract"]


class ContractionState:
    def __init__(self, und: CSR):
        self.deg_ref = und.degrees().copy()  # degrees at the last contraction
        self.lost_since = np.zeros(und.n, dtype=np.int64)
        self.peeled_since = 0
        self.contractions = 0

    def note_peeled_edges(self, rows: np.ndarray) -> None:
        """rows: (k, 2) peeled edge endpoints."""
        np.add.at(self.lost_since, rows.ravel(), 1)
        self.peeled_since += len(rows)


def maybe_contract(
    und: CSR,
    state: ContractionState,
    edge_peeled,  # callable: (k, 2) vertex rows -> bool mask of peeled edges
) -> CSR:
    """Apply the §5.6 heuristic; returns the (possibly new) undirected CSR."""
    if state.peeled_since < 2 * und.n:
        return und
    qualify = state.lost_since * 4 >= np.maximum(state.deg_ref, 1)
    qualify &= state.lost_since > 0
    if not qualify.any():
        state.peeled_since = 0
        return und
    # Vectorized parallel-filter of the qualifying adjacency lists: one
    # batched peeled-edge lookup over all their arcs, then a masked copy.
    src = und.arc_src
    cand = np.flatnonzero(qualify[src])
    rows = np.stack(
        [np.minimum(src[cand], und.nbrs[cand]), np.maximum(src[cand], und.nbrs[cand])],
        axis=1,
    )
    keep = np.ones(len(und.nbrs), dtype=bool)
    keep[cand[edge_peeled(rows)]] = False
    contracted = CSR.from_arcs(und.n, src[keep], und.nbrs[keep])
    state.contractions += 1
    state.peeled_since = 0
    state.deg_ref = contracted.degrees()
    state.lost_since[:] = 0
    return contracted
