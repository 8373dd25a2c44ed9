"""Shared small graphs for correctness tests.

``FIG1_EDGES`` is the paper's Figure 1 worked example: K5 on
{a..e}=0..4, f=5 attached to {a,b,e}, g=6 attached to {c,d}. The paper
states its exact (3,4) decomposition (cdg -> 0; abf, aef, bef -> 1; the
ten K5 triangles -> 2), which several tests assert verbatim.
"""
from __future__ import annotations

from itertools import combinations
from typing import Callable

import numpy as np

from repro.cliques.listing import Peeled, extend_cliques, peel_faces, s_counts_per_r_clique
from repro.graphs.csr import CSR
from repro.graphs.gen import community_graph, erdos_renyi, rmat
from repro.instrument import Counters
from repro.tables.clique_table import make_table

FIG1_EDGES = np.array(
    sorted(
        list(combinations(range(5), 2))  # K5 on 0..4
        + [(0, 5), (1, 5), (4, 5)]  # f = 5
        + [(2, 6), (3, 6)]  # g = 6
    ),
    dtype=np.int64,
)

FIG1_34_CORE = {
    (2, 3, 6): 0,
    (0, 1, 5): 1,
    (0, 4, 5): 1,
    (1, 4, 5): 1,
    **{tuple(sorted(t)): 2 for t in combinations(range(5), 3)},
}


def k_complete(k: int) -> np.ndarray:
    return np.array(list(combinations(range(k), 2)), dtype=np.int64)


def path(k: int) -> np.ndarray:
    return np.array([(i, i + 1) for i in range(k - 1)], dtype=np.int64)


def two_triangles_shared_edge() -> np.ndarray:
    return np.array([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], dtype=np.int64)


SMALL_GRAPHS: dict[str, np.ndarray] = {
    "fig1": FIG1_EDGES,
    "k4": k_complete(4),
    "k6": k_complete(6),
    "k7": k_complete(7),
    "path6": path(6),
    "bowtie": np.array(
        [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)], dtype=np.int64
    ),
    "two-tri": two_triangles_shared_edge(),
    "er30": erdos_renyi(30, 0.3, seed=7),
    "er40": erdos_renyi(40, 0.25, seed=8),
    "comm": community_graph(4, 4, 7, p_intra=0.9, inter_per_vertex=1.0, seed=9),
    "rmat6": rmat(6, 160, seed=10),
}

MEDIUM_GRAPHS: dict[str, np.ndarray] = {
    "er60": erdos_renyi(60, 0.2, seed=21),
    "comm-m": community_graph(8, 5, 9, p_intra=0.85, inter_per_vertex=1.2, seed=22),
    "rmat8": rmat(8, 900, seed=23),
}

# The benchmark's graphs at their default seeds, built on demand:
# ``spark-orkut-34`` runs on ``orkut-34``'s graph.
BENCH_GRAPHS: dict[str, Callable[[], np.ndarray]] = {
    "orkut-34": lambda: rmat(9, 10000, seed=15),
    "dblp-25": lambda: community_graph(24, 6, 14, p_intra=0.9, inter_per_vertex=1.2, seed=12),
    "skitter-23": lambda: rmat(12, 20000, seed=14),
}


def update_unpeeled(
    und: CSR, dg: CSR, A_rows: np.ndarray, need: int, counters: Counters | None = None
) -> np.ndarray:
    """UPDATE's listing over the r-cliques ``A_rows`` (sorted rows) of
    ``und`` with nothing peeled, every round -1: every s-clique
    containing each row, led by that row. The faces, ids and id map are
    the decomposition's: each r-clique's id is its row in counting's
    order."""
    r = A_rows.shape[1]
    vmat = s_counts_per_r_clique(dg, r, r + 1)[0]
    faces = peel_faces(und, dg, vmat)
    row_of = {R: i for i, R in enumerate(map(tuple, vmat.tolist()))}
    own = np.array([row_of[R] for R in map(tuple, A_rows.tolist())], dtype=np.int64)
    live = np.full(len(vmat), -1, dtype=np.int64)
    counters = Counters() if counters is None else counters
    table = make_table(vmat, und.n, dg=dg)
    return extend_cliques(dg, A_rows, need, counters, Peeled(live, own, faces, table))[0]
