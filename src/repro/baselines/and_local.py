"""AND / AND-NN (Sariyüce et al. [56]): local convergence baselines.

Each r-clique iteratively lowers an estimate tau(R) — initialized to
its s-clique count — to the h-index of {min over the *other* member
r-cliques' tau, per incident s-clique}. The fixpoint of this operator
is the (r,s)-clique core number (verified against the reference oracle
in tests).

AND stores nothing per s-clique: every iteration, every r-clique
re-enumerates all of its incident s-cliques, which is why the paper
measures AND discovering 1.69-46.03x (median 15.15x) the s-cliques that
ARB-NUCLEUS-DECOMP does. AND-NN ("with notification") stores the
s-clique -> member-r-cliques incidence and recomputes only notified
r-cliques, trading the paper's reported memory blowup
(``incidence_bytes``) for fewer discoveries.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ..cliques.listing import enumerate_cliques, s_counts_per_r_clique
from ..graphs.csr import build_csr, orient_csr
from ..graphs.orient import make_rank
from ..tables.packing import row_ranks

__all__ = ["and_decomposition", "AndResult"]


@dataclass
class AndResult:
    core: dict[tuple[int, ...], int]
    iterations: int
    scliques_discovered: int
    incidence_bytes: int  # extra memory AND-NN must keep resident


def _h_indices(groups: np.ndarray, vals: np.ndarray, n_groups: int) -> np.ndarray:
    """h-index per group of (group id, value) pairs, vectorized."""
    h = np.zeros(n_groups, dtype=np.int64)
    if len(groups) == 0:
        return h
    order = np.lexsort((-vals, groups))
    g, v = groups[order], vals[order]
    starts = np.concatenate([[0], np.flatnonzero(g[1:] != g[:-1]) + 1])
    pos = np.arange(len(g)) - np.repeat(starts, np.diff(np.concatenate([starts, [len(g)]])))
    cand = np.minimum(v, pos + 1)
    h[g[starts]] = np.maximum.reduceat(cand, starts)
    return h


def and_decomposition(
    edges: np.ndarray, r: int, s: int, *, notification: bool = False
) -> AndResult:
    """Run AND (notification=False) or AND-NN (True) to convergence."""
    und = build_csr(edges)
    rank = make_rank(und)
    dg = orient_csr(und, rank)
    vmat, tau = s_counts_per_r_clique(dg, r, s)
    n_r = len(vmat)

    # members[i, j]: row of vmat holding the j-th r-subset of s-clique i.
    s_mat = enumerate_cliques(dg, s)
    subs = np.array(list(combinations(range(s), r)), dtype=np.int64)
    n_sub = len(subs)
    rank, _ = row_ranks(np.concatenate([vmat, s_mat[:, subs].reshape(-1, r)]), und.n)
    members = np.searchsorted(rank[:n_r], rank[n_r:]).reshape(len(s_mat), n_sub)
    incidence_bytes = members.nbytes if notification else 0

    inc_count = np.bincount(members.ravel(), minlength=n_r) if len(s_mat) else np.zeros(n_r, np.int64)
    active = np.ones(n_r, dtype=bool)
    iterations = 0
    discovered = 0
    while active.any():
        iterations += 1
        vals = tau[members]  # (n_s, n_sub)
        if len(vals):
            amin = vals.argmin(axis=1)
            m1 = vals[np.arange(len(vals)), amin]
            tmp = vals.copy()
            tmp[np.arange(len(vals)), amin] = np.iinfo(np.int64).max
            m2 = tmp.min(axis=1)
            min_excl = np.where(
                np.arange(n_sub)[None, :] == amin[:, None], m2[:, None], m1[:, None]
            )
        else:
            min_excl = vals
        if notification:
            # r-cliques notified by a changed co-member recompute; their h
            # needs every s-clique incident to any of them.
            s_notify = active[members].any(axis=1) if len(members) else np.zeros(0, bool)
            recompute = np.unique(members[s_notify])
            re_mask = np.zeros(n_r, dtype=bool)
            re_mask[recompute] = True
            s_needed = re_mask[members].any(axis=1) if len(members) else s_notify
            discovered += int(inc_count[recompute].sum())
        else:
            recompute = np.arange(n_r)
            s_needed = np.ones(len(members), dtype=bool)
            discovered += len(members) * n_sub  # every member re-enumerates S
        groups = members[s_needed].ravel()
        flat_vals = min_excl[s_needed].ravel()
        h = _h_indices(groups, flat_vals, n_r)
        new_tau = tau.copy()
        new_tau[recompute] = np.minimum(tau[recompute], h[recompute])
        changed = new_tau != tau
        tau = new_tau
        active = changed
    core = {tuple(k): c for k, c in zip(vmat.tolist(), tau.tolist())}
    return AndResult(
        core=core,
        iterations=iterations,
        scliques_discovered=discovered,
        incidence_bytes=incidence_bytes,
    )
