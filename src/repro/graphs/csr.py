"""Compressed sparse row graph representation (§3 "Graph Storage").

The paper stores graphs in CSR and adjacency hash tables; here the
sorted ``src * n + dst`` arc keys of a CSR stand in for the adjacency
hash tables: an edge-membership test is a binary search over them
(O(log m) per probe instead of O(1) expected).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["CSR", "build_csr", "orient_csr"]


@dataclass
class CSR:
    """Adjacency structure: neighbours of v are nbrs[offsets[v]:offsets[v+1]], sorted."""

    n: int
    offsets: np.ndarray  # int64, len n+1
    nbrs: np.ndarray  # int64, len = sum of degrees

    @property
    def m(self) -> int:
        """Number of directed arcs stored (2x edges for an undirected CSR)."""
        return int(len(self.nbrs))

    def neighbors(self, v: int) -> np.ndarray:
        return self.nbrs[self.offsets[v] : self.offsets[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def arc_keys(self) -> np.ndarray:
        """``src * n + dst`` of every arc, ascending (CSR order is key order),
        for membership tests by binary search. Computed once per graph."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())
        return src * self.n + self.nbrs


def build_csr(edges: np.ndarray, n: int | None = None) -> CSR:
    """Build a symmetric CSR from an (m, 2) undirected edge array.

    Self loops and duplicate edges are dropped; each edge contributes an
    arc in both directions; neighbour lists are sorted ascending.
    """
    edges = np.asarray(edges, dtype=np.int64)
    if n is None:
        n = int(edges.max()) + 1 if len(edges) else 0
    if len(edges) == 0:
        return CSR(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    key = u * n + v
    uniq = np.unique(key)
    u, v = uniq // n, uniq % n
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    offsets = np.cumsum(offsets)
    return CSR(n, offsets, dst)


def orient_csr(csr: CSR, rank: np.ndarray) -> CSR:
    """Directed CSR keeping only arcs u -> v with rank[u] < rank[v].

    This is the a-orientation of §3: with ``rank`` from a degeneracy or
    Goodrich-Pszona ordering, out-degrees are O(alpha). Neighbour lists
    stay sorted by vertex id so intersections remain merge-based.
    """
    n = csr.n
    src = np.repeat(np.arange(n, dtype=np.int64), csr.degrees())
    keep = rank[src] < rank[csr.nbrs]
    src, dst = src[keep], csr.nbrs[keep]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, src + 1, 1)
    offsets = np.cumsum(offsets)
    return CSR(n, offsets, dst)
