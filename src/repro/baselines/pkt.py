"""PKT-style k-truss decomposition (Kabir & Madduri [37], Che et al. [12]).

The specialized (2,3) competitor: edge-centric, level-synchronous
peeling over per-edge triangle supports with flat arrays — no general
(r,s) machinery, which is exactly why the paper can only compare
against it for k-truss. Returns the (2,3)-clique core number per edge
(support-at-peel), which tests check against the general algorithm.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cliques.listing import enumerate_cliques
from ..graphs.csr import CSR, build_csr, orient_csr
from ..graphs.orient import degree_order

__all__ = ["pkt_truss", "PktResult"]


@dataclass
class PktResult:
    edges: np.ndarray  # (m, 2) canonical u < v
    core: np.ndarray  # (m,) (2,3)-clique core number per edge


def pkt_truss(edges: np.ndarray) -> PktResult:
    und = build_csr(edges)
    n = und.n
    dg = orient_csr(und, degree_order(und))
    tri = enumerate_cliques(dg, 3)  # rows sorted asc

    # Canonical edge ids: the u < v arcs, whose keys CSR order keeps sorted.
    mask = und.arc_src < und.nbrs
    eu, ev, ekeys = und.arc_src[mask], und.nbrs[mask], und.arc_keys[mask]
    m = len(ekeys)

    def eid(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.searchsorted(ekeys, a * n + b)

    tri_e = np.column_stack(
        [eid(tri[:, 0], tri[:, 1]), eid(tri[:, 0], tri[:, 2]), eid(tri[:, 1], tri[:, 2])]
    )
    support = np.bincount(tri_e.ravel(), minlength=m)

    tri_alive = np.ones(len(tri), dtype=bool)
    edge_alive = np.ones(m, dtype=bool)
    core = np.zeros(m, dtype=np.int64)
    # Per-edge incident triangle lists: a CSR from edge id to triangle id
    # (flat index // 3), triangle ids ascending within an edge.
    flat = tri_e.ravel()
    torder = np.argsort(flat, kind="stable")
    incident = CSR.from_arcs(m, flat[torder], torder // 3)
    remaining = m
    k = 0
    while remaining > 0:
        if not (edge_alive & (support <= k)).any():
            alive_sup = support[edge_alive]
            k = int(alive_sup.min())
        frontier = np.flatnonzero(edge_alive & (support <= k))
        while len(frontier):
            core[frontier] = k
            edge_alive[frontier] = False
            remaining -= len(frontier)
            nxt: list[np.ndarray] = []
            for e in frontier:
                for t in incident.neighbors(e):
                    if not tri_alive[t]:
                        continue
                    tri_alive[t] = False
                    others = tri_e[t][tri_e[t] != e]
                    for o in others:
                        if edge_alive[o]:
                            support[o] -= 1
                            if support[o] <= k:
                                nxt.append(o)
            frontier = np.unique(np.array(nxt, dtype=np.int64)) if nxt else np.empty(0, np.int64)
            frontier = frontier[edge_alive[frontier]]
    return PktResult(edges=np.stack([eu, ev], axis=1), core=core)
