"""ND and PND (Sariyüce et al. [56, 57]): global peeling baselines.

Both peel r-cliques *one at a time* in min-count order. ND is the
serial algorithm. PND parallelizes counting and each single peel's
update, but — to avoid the synchronization problems that
ARB-NUCLEUS-DECOMP's update-aggregation machinery solves — it does NOT
peel equal-count r-cliques simultaneously; every r-clique is its own
round with a synchronization barrier. This is exactly the behaviour
behind the paper's "PND performs 5608-84170x the number of rounds of
ARB-NUCLEUS-DECOMP" measurement: here ``rounds`` equals the number of
peeled r-cliques. Each peel runs ARB's UPDATE (``extend_cliques``) on
one r-clique, with the r-cliques' row numbers as their ids, the
peel order as their rounds and ARB's id map (``make_table``), which
names the r-subsets of each listed s-clique where UPDATE does not. The
two share their peel order and results, so ``nd_decomposition`` serves
for both.
"""
from __future__ import annotations

import heapq
from itertools import combinations
from math import log2

import numpy as np

from ..cliques.listing import Peeled, extend_cliques, peel_faces, s_counts_per_r_clique
from ..graphs.csr import build_csr, orient_csr
from ..graphs.orient import make_rank
from ..instrument import Counters
from ..tables.clique_table import make_table

__all__ = ["nd_decomposition"]


def nd_decomposition(edges: np.ndarray, r: int, s: int):
    """ND, and PND's peel order and results: returns (core_dict, counters);
    counters.rounds is the number of peels, which dominates PND's span."""
    und = build_csr(edges)
    dg = orient_csr(und, make_rank(und))
    counters = Counters()
    vmat, cnts = s_counts_per_r_clique(dg, r, s, counters=counters)
    faces = peel_faces(und, dg, vmat)
    table = make_table(vmat, und.n, dg=dg)
    subs_cols = np.array(list(combinations(range(s), r)), dtype=np.int64)
    order = np.full(len(vmat), -1, dtype=np.int64)  # peel round of every row, -1 while live
    counts, core = cnts.tolist(), [0] * len(vmat)
    heap = list(zip(counts, range(len(vmat))))  # ties by row: vmat is in lexicographic order
    heapq.heapify(heap)
    log2n = log2(max(2, und.n))
    k_cur = 0
    while heap:
        c, i = heapq.heappop(heap)
        if order[i] >= 0 or c != counts[i]:
            continue
        core[i] = k_cur = max(k_cur, c)
        now = order[i] = counters.rounds
        counters.rounds += 1  # one r-clique per round: no intra-bucket parallelism
        counters.span_logs += log2n
        if c == 0:
            continue
        one = np.array([i])
        found, ids = extend_cliques(dg, vmat[one], s - r, counters, Peeled(order, one, faces, table))
        if ids is None:
            found.sort(axis=1)
            ids = table.lookup(found[:, subs_cols].reshape(-1, r)).reshape(len(found), -1)
        for subs in ids.tolist():
            if any(0 <= order[j] < now for j in subs):
                continue  # s-clique already destroyed by an earlier peel
            for j in subs:
                if order[j] < 0:
                    counts[j] -= 1
                    heapq.heappush(heap, (counts[j], j))
                    counters.work += 1
    return dict(zip(map(tuple, vmat.tolist()), core)), counters
