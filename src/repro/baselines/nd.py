"""ND and PND (Sariyüce et al. [56, 57]): global peeling baselines.

Both peel r-cliques *one at a time* in min-count order. ND is the
serial algorithm. PND parallelizes counting and each single peel's
update, but — to avoid the synchronization problems that
ARB-NUCLEUS-DECOMP's update-aggregation machinery solves — it does NOT
peel equal-count r-cliques simultaneously; every r-clique is its own
round with a synchronization barrier. This is exactly the behaviour
behind the paper's "PND performs 5608-84170x the number of rounds of
ARB-NUCLEUS-DECOMP" measurement: here ``rounds`` equals the number of
peeled r-cliques (minus free batches at round end). The two share their
peel order and results, so ``nd_decomposition`` serves for both.
"""
from __future__ import annotations

import heapq
from itertools import combinations
from math import log2

import numpy as np

from ..cliques.listing import extend_cliques, s_counts_per_r_clique
from ..graphs.csr import build_csr, orient_csr
from ..graphs.orient import make_rank
from ..instrument import Counters

__all__ = ["nd_decomposition"]


def nd_decomposition(edges: np.ndarray, r: int, s: int):
    """ND, and PND's peel order and results: returns (core_dict, counters);
    counters.rounds is the number of peels, which dominates PND's span."""
    und = build_csr(edges)
    rank = make_rank(und)
    dg = orient_csr(und, rank)
    counters = Counters()
    vmat, cnts = s_counts_per_r_clique(dg, r, s, counters=counters)
    counts = {tuple(k): c for k, c in zip(vmat.tolist(), cnts.tolist())}
    heap = [(c, k) for k, c in counts.items()]
    heapq.heapify(heap)
    peeled: set[tuple[int, ...]] = set()
    core: dict[tuple[int, ...], int] = {}
    log2n = log2(max(2, und.n))
    k_cur = 0
    while heap:
        c, R = heapq.heappop(heap)
        if R in peeled or c != counts[R]:
            continue
        k_cur = max(k_cur, c)
        core[R] = k_cur
        peeled.add(R)
        counters.rounds += 1  # one r-clique per round: no intra-bucket parallelism
        counters.span_logs += log2n
        if counts[R] == 0:
            continue
        found = extend_cliques(und, dg, np.array([R]), s - r, counters)
        found.sort(axis=1)
        for row in found.tolist():
            subsets = list(combinations(row, r))
            if any(sub in peeled and sub != R for sub in subsets):
                continue  # s-clique already destroyed by an earlier peel
            for sub in subsets:
                if sub == R or sub in peeled:
                    continue
                counts[sub] -= 1
                heapq.heappush(heap, (counts[sub], sub))
                counters.work += 1
    return core, counters
