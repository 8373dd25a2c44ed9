"""Compressed sparse row graph representation (§3 "Graph Storage").

The CSR arc layout lives here and nowhere else: arcs are grouped by
source vertex, ascending, and each neighbour list has an order of its
own graph's choosing. ``build_csr`` keeps destinations ascending within
a source, the ascending order of the packed arc keys ``src * n + dst``;
``orient_csr`` keeps each out-list in rank order, the order the clique
kernel's candidate sets need. ``arc_src`` expands the offsets back to
one source per arc, ``from_arcs`` builds offsets from arcs already
grouped by source, ``from_keys`` builds a CSR from its sorted distinct
arc keys, and ``gather`` reads the neighbour lists of many vertices at
once (``arcs`` gives their positions instead).

The paper stores graphs in CSR and adjacency hash tables. Here the
oriented graph DG's ``src * n + dst`` arc keys go into one
``open_addr.KeySet`` (``arc_set``), the one-region case of table T's
open addressing, which maps an arc key to the arc's CSR position in
O(1) expected, as in the paper. It is the decomposition's only arc
structure: DG holds each edge of the undirected graph once, so an edge
{u, v} is asked for by the key of its arc in rank direction
(``edge_keys``; DG carries its ``rank``), and no undirected CSR,
original or contracted, builds a set. At r = 2 an edge is an r-clique:
``edge_order`` lists DG's arcs in the lexicographic order of their
edges, the order counting returns the r-cliques in, and ``edge_ids``,
its inverse, gives each arc its edge's place in that order, the edge's
r-clique id, which ``edge_id`` reads for any edge in one gather: the
map holds one more entry, -1, which an arc map miss (position -1)
reads, as T's ``row_of_cell`` does.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..tables.open_addr import KeySet

__all__ = ["CSR", "build_csr", "orient_csr"]


@dataclass
class CSR:
    """Adjacency structure: neighbours of v are nbrs[offsets[v]:offsets[v+1]],
    ascending by id (``build_csr``) or by rank (``orient_csr``)."""

    n: int
    offsets: np.ndarray  # int64, len n+1
    nbrs: np.ndarray  # int64, len = sum of degrees
    # an oriented CSR's orientation rank (orient_csr); None when it is the
    # vertex id, as under relabeling
    rank: np.ndarray | None = None

    @classmethod
    def from_arcs(cls, n: int, src: np.ndarray, dst: np.ndarray) -> CSR:
        """CSR over n vertices from arcs grouped by ``src``, ascending; each
        source's destinations keep the order given."""
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
        return cls(n, offsets, dst)

    @classmethod
    def from_keys(cls, n: int, keys: np.ndarray) -> CSR:
        """CSR over n vertices from its arc keys ``src * n + dst``, sorted
        and distinct; ``arc_src`` and ``arc_keys`` come pre-computed."""
        src = keys // n
        csr = cls.from_arcs(n, src, keys - src * n)
        csr.__dict__.update(arc_src=src, arc_keys=keys)  # fill the cached properties
        return csr

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

    def arcs(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, pos) for every arc v[i] -> nbrs[pos], grouped by i, in list
        order."""
        hi = self.offsets[1:][v]
        deg = hi - self.offsets[v]
        pos = (hi - deg.cumsum()).repeat(deg)  # list start less the arcs before it
        pos += np.arange(len(pos))
        return np.arange(len(v)).repeat(deg), pos

    def gather(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(i, w) for every arc v[i] -> w, grouped by i, w in list order."""
        i, pos = self.arcs(v)
        return i, self.nbrs[pos]

    @cached_property
    def arc_src(self) -> np.ndarray:
        """Source vertex of every arc, in CSR order. Computed once per graph."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self.degrees())

    @cached_property
    def arc_keys(self) -> np.ndarray:
        """``src * n + dst`` of every arc, in CSR order: ascending for an
        id-ordered CSR. Computed once per graph."""
        return self.arc_src * self.n + self.nbrs

    @cached_property
    def arc_set(self) -> KeySet:
        """``arc_keys`` as a hash map to CSR positions: ``find`` gives the
        position of each arc asked for, -1 where absent, in O(1)
        expected. Built once per graph, on first use."""
        return KeySet(self.arc_keys)

    @cached_property
    def by_rank(self) -> np.ndarray:
        """Vertex of each rank of an oriented CSR, the inverse of ``rank``."""
        perm = np.empty(self.n, dtype=np.int64)
        perm[self.rank] = np.arange(self.n)
        return perm

    def edge_keys(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Arc key of the edge {u[i], v[i]} in an oriented CSR, in the
        direction ``rank`` orients it: ``arc_set`` finds it exactly when
        the edge is in the graph. The key ``lo * n + hi`` is formed as
        ``lo * (n - 1) + u + v`` in place, since each temporary array of
        a large batch costs a fresh allocation."""
        if self.rank is None:
            lo = np.minimum(u, v)
        else:  # the vertex of the lower of the two ranks
            lo = self.rank[u]
            np.minimum(lo, self.rank[v], out=lo)
            lo = self.by_rank[lo]
        lo *= self.n - 1
        lo += u
        lo += v
        return lo

    @cached_property
    def edge_order(self) -> np.ndarray:
        """Arc positions of an oriented CSR in the lexicographic order of
        their (min, max) vertex pairs, the order of its edges as 2-cliques.
        Oriented by id, every arc runs min -> max and CSR order is that
        order. Computed once per graph."""
        if self.rank is None:
            return np.arange(self.m)
        lo = np.minimum(self.arc_src, self.nbrs)
        return np.argsort(lo * (self.n - 1) + self.arc_src + self.nbrs)

    @cached_property
    def _edge_id_of_pos(self) -> np.ndarray:
        """``edge_ids`` followed by -1: an arc map miss (position -1) reads
        the extra last entry. Computed once per graph."""
        ids = np.full(self.m + 1, -1, dtype=np.int64)
        ids[self.edge_order] = np.arange(self.m)
        return ids

    @property
    def edge_ids(self) -> np.ndarray:
        """Edge index of every arc of an oriented CSR, by CSR position: the
        arc's place in ``edge_order``, its inverse. At r = 2 it is the
        arc's r-clique id."""
        return self._edge_id_of_pos[:-1]

    def edge_id(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Edge index of the edge {u[i], v[i]} of an oriented CSR, its
        r-clique id at r = 2: its arc's ``edge_ids`` entry, -1 where the
        edge is absent."""
        return self._edge_id_of_pos[self.arc_set.find(self.edge_keys(u, v))]


MAX_N = 3_037_000_499  # the largest n whose arc keys u * n + v fit in int64


def _check_edges(edges: np.ndarray, n: int | None) -> None:
    """Raise ``ValueError`` naming the defect of a malformed edge array."""
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must have shape (m, 2), got {edges.shape}")
    if not np.issubdtype(edges.dtype, np.integer):
        raise ValueError(f"edges must have an integer dtype, got {edges.dtype}")
    if edges.dtype.kind == "u" and len(edges) and int(edges.max()) >= 2**63:  # int64 would wrap
        raise ValueError(f"vertex ids must be below 2^63, got {int(edges.max())}")
    if len(edges) and edges.min() < 0:
        raise ValueError(f"vertex ids must be non-negative, got {edges.min()}")
    if n is not None and len(edges) and n <= edges.max():
        raise ValueError(f"n = {n} must exceed the largest vertex id {edges.max()}")


def build_csr(edges: np.ndarray, n: int | None = None) -> CSR:
    """Build a symmetric CSR from an (m, 2) undirected edge array.

    This is where every input graph enters, so it validates the array:
    an integer dtype, shape (m, 2), non-negative ids below 2^63 and n
    above the largest id; n must be at most ``MAX_N``, so that the arc
    keys fit in int64. Self loops are dropped; each edge contributes
    the arc keys ``u * n + v`` and ``v * n + u``, and one ``np.unique`` of
    all of them drops duplicate edges, in either orientation, and sorts
    the arcs into CSR order in the same step.
    """
    edges = np.asarray(edges)
    _check_edges(edges, n)
    if n is None:
        n = int(edges.max()) + 1 if len(edges) else 0
    if n > MAX_N:  # before any n-sized array
        raise ValueError(f"n = {n} exceeds {MAX_N}, above which arc keys u * n + v overflow int64")
    edges = edges.astype(np.int64, copy=False)
    u, v = edges[:, 0], edges[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    return CSR.from_keys(n, np.unique(np.concatenate([u * n + v, v * n + u])))


def orient_csr(csr: CSR, rank: np.ndarray) -> CSR:
    """Directed CSR keeping only arcs u -> v with rank[u] < rank[v], each
    out-list in rank order.

    This is the a-orientation of §3: with ``rank`` from the degeneracy
    order, out-degrees are at most d <= 2*alpha - 1. The clique kernel
    relies on the rank order: a candidate set drawn from an out-list
    keeps it, so an arc between two candidates always runs from the
    earlier to the later one. The kept arcs stay grouped by source and
    take one sort of ``src * n + rank[dst]``; under relabeling (rank ==
    id) that is the id order they already have.
    """
    n = csr.n
    src = csr.arc_src
    keep = rank[src] < rank[csr.nbrs]
    src = src[keep]
    base = src * n
    keys = np.sort(base + rank[csr.nbrs[keep]])
    perm = np.empty(n, dtype=np.int64)
    perm[rank] = np.arange(n)
    dg = CSR.from_arcs(n, src, perm[keys - base])
    if not np.array_equal(rank, np.arange(n)):
        dg.rank = rank
        dg.__dict__["by_rank"] = perm  # fill the cached property
    return dg
