"""Synthetic graph generators.

All generators are deterministic in ``seed`` and return a numpy edge
array of shape (m, 2) with ``0 <= u, v < n``, no self loops, and no
duplicate undirected edges (each undirected edge appears once, as
``(min, max)``).

The SNAP graphs used in the paper (amazon .. friendster) cannot be
downloaded in this offline container, so ``surrogate`` provides scaled-
down synthetic stand-ins from the same structural families: community
graphs for the high-clustering co-purchase/co-authorship graphs, and
rMAT (the paper's own synthetic model, Fig 15) for the skewed web/social
graphs. See DESIGN.md §2.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "rmat",
    "erdos_renyi",
    "community_graph",
    "surrogate",
    "SURROGATES",
]


def _dedup(edges: np.ndarray) -> np.ndarray:
    """Canonicalize to (min, max), drop self loops and duplicates."""
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    key = u.astype(np.int64) * (int(v.max()) + 1 if len(v) else 1) + v
    _, idx = np.unique(key, return_index=True)
    out = np.stack([u[idx], v[idx]], axis=1).astype(np.int64)
    return out


RMAT_CHUNK = 1 << 16  # edges per quadrant draw in ``rmat``


def rmat(
    log2_n: int,
    n_edges: int,
    *,
    a: float = 0.5,
    b: float = 0.1,
    c: float = 0.1,
    d: float = 0.3,
    seed: int = 0,
) -> np.ndarray:
    """rMAT generator (Chakrabarti et al.) with the paper's parameters.

    Duplicate generated edges are removed, as in the paper (Fig 15), so
    the returned edge count is at most ``n_edges``.
    """
    g = np.random.default_rng(seed)
    n_bits = log2_n
    probs = np.array([a, b, c, d])
    probs /= probs.sum()
    weights = (1 << np.arange(n_bits - 1, -1, -1)).astype(np.int64)
    u = np.empty(n_edges, dtype=np.int64)
    v = np.empty(n_edges, dtype=np.int64)
    # A quadrant choice per bit level, drawn for RMAT_CHUNK edges at a
    # time: the generator fills the (n_edges, n_bits) matrix in row-major
    # order either way, so the edges equal one whole-matrix draw, and
    # only a chunk of the int64 matrix is held at once.
    for lo in range(0, n_edges, RMAT_CHUNK):
        quad = g.choice(4, size=(min(RMAT_CHUNK, n_edges - lo), n_bits), p=probs)
        u[lo : lo + len(quad)] = ((quad >> 1) & 1) @ weights  # quadrants 2,3 -> lower half row bit
        v[lo : lo + len(quad)] = (quad & 1) @ weights
    return _dedup(np.stack([u, v], axis=1))


def erdos_renyi(n: int, p: float, *, seed: int = 0) -> np.ndarray:
    """G(n, p) via sampling the expected number of edges (fast, dedup'd)."""
    g = np.random.default_rng(seed)
    max_edges = n * (n - 1) // 2
    n_draw = int(2.2 * p * max_edges) + 8
    u = g.integers(0, n, n_draw)
    v = g.integers(0, n, n_draw)
    edges = _dedup(np.stack([u, v], axis=1))
    target = int(round(p * max_edges))
    if len(edges) > target:
        idx = g.choice(len(edges), target, replace=False)
        edges = edges[np.sort(idx)]
    return edges


def community_graph(
    n_communities: int,
    size_lo: int,
    size_hi: int,
    *,
    p_intra: float = 0.85,
    inter_per_vertex: float = 1.5,
    seed: int = 0,
) -> np.ndarray:
    """Planted dense communities + sparse random inter-community edges.

    Communities are near-cliques, so the graph is rich in c-cliques for
    c up to the community size — the regime where nucleus decomposition
    with larger (r, s) is interesting (dblp/amazon-like clustering).
    """
    g = np.random.default_rng(seed)
    sizes = g.integers(size_lo, size_hi + 1, n_communities)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])
    blocks = []
    for ci in range(n_communities):
        lo, hi = int(starts[ci]), int(starts[ci + 1])
        vs = np.arange(lo, hi)
        iu, iv = np.triu_indices(len(vs), k=1)
        mask = g.random(len(iu)) < p_intra
        if mask.any():
            blocks.append(np.stack([vs[iu[mask]], vs[iv[mask]]], axis=1))
    n_inter = int(inter_per_vertex * n)
    u = g.integers(0, n, n_inter)
    v = g.integers(0, n, n_inter)
    blocks.append(np.stack([u, v], axis=1))
    return _dedup(np.concatenate(blocks))


# name -> (generator thunk, short description). Sizes chosen so the full
# (r, s) sweep r < s <= 5 completes in seconds per graph.
SURROGATES = {
    "amazon-lite": (
        lambda: community_graph(150, 4, 10, p_intra=0.8, inter_per_vertex=1.0, seed=11),
        "co-purchase-like: many small moderately dense communities",
    ),
    "dblp-lite": (
        lambda: community_graph(90, 6, 14, p_intra=0.9, inter_per_vertex=1.2, seed=12),
        "co-authorship-like: larger near-clique communities",
    ),
    "youtube-lite": (
        lambda: rmat(12, 20000, seed=13),
        "skewed social graph, low clustering",
    ),
    "skitter-lite": (
        lambda: rmat(13, 50000, seed=14),
        "internet-topology-like skewed graph",
    ),
    "orkut-lite": (
        lambda: rmat(10, 30000, seed=15),
        "dense skewed social graph",
    ),
}


def surrogate(name: str) -> np.ndarray:
    """Return the edge array of a named SNAP-surrogate graph."""
    return SURROGATES[name][0]()
