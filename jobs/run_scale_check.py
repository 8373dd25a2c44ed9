"""At-scale check of the best configuration on three rMAT graphs.

    python jobs/run_scale_check.py             # every case, each in its own process
    python jobs/run_scale_check.py --case 1    # one case, in this process

A case generates ``rmat(log2_n, m, seed=3)``, makes one warm-up call of
``nucleus_decomposition`` with ``experiments._best_config`` and then
three timed calls, and prints one line: the median of the three calls,
a hash of ``core`` and ``vmat`` (equal hashes mean equal outputs), the
s-cliques UPDATE listed (``scliques_discovered``), the graph
contractions made (``contractions``, nonzero only at (2,3), where the
best configuration contracts) and the process's peak RSS
(``ru_maxrss``). Each case runs in a child process, so the RSS is
that case's own; at ``rmat(17, 1M)`` it is mostly the generator's. A
second line gives the orientation's cost on the case's graph: the
median of as many warm ``make_rank`` calls on its CSR, timed after the
RSS is read.

Then the case checks its decomposition against independent code, one
line per check, and the job exits non-zero if any check fails:

* the core numbers equal AND's (``and_decomposition``), a local
  h-index fixpoint in place of peeling;
* at (2,3) they equal PKT's truss numbers (``pkt_truss``), a serial
  edge peel on a degree orientation;
* on the first case's graph, a (1,2) decomposition equals
  ``networkx.core_number``;
* the s-clique counts ``s_counts_per_r_clique`` gives a seeded sample
  of about 1,000 r-cliques equal those recounted by Python set
  intersection over the neighbour lists.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import resource
import statistics
import subprocess
import sys
import time

from _common import check  # also puts repro on the path

CASES = [(14, 300_000, 3, 4), (13, 150_000, 2, 4), (17, 1_000_000, 2, 3)]
SEED = 3
CALLS = 3
SAMPLE = 1000


def _cliques_in(cand: set, adj, c: int) -> int:
    """Number of c >= 1 cliques among the vertices ``cand``, each counted
    from its lowest vertex by set intersection."""
    if c == 1:
        return len(cand)
    order = sorted(cand)
    return sum(_cliques_in(adj(v) & set(order[i + 1 :]), adj, c - 1) for i, v in enumerate(order))


def run_case(i: int) -> bool:
    """Run case i; True when every check passes."""
    import numpy as np

    from repro.baselines.and_local import and_decomposition
    from repro.baselines.pkt import pkt_truss
    from repro.cliques.listing import s_counts_per_r_clique
    from repro.experiments import _best_config
    from repro.graphs.csr import build_csr, orient_csr
    from repro.graphs.gen import rmat
    from repro.graphs.orient import make_rank
    from repro.nucleus.decomp import nucleus_decomposition

    log2_n, m, r, s = CASES[i]
    edges = rmat(log2_n, m, seed=SEED)
    cfg = _best_config(r, s)
    nucleus_decomposition(edges, r, s, cfg)
    times = []
    for _ in range(CALLS):
        t = time.perf_counter()
        res = nucleus_decomposition(edges, r, s, cfg)
        times.append(time.perf_counter() - t)
    digest = hashlib.sha256(res.core.tobytes() + res.vmat.tobytes()).hexdigest()[:16]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"rmat({log2_n}, {m}) ({r},{s}): median {statistics.median(times):.3f} s"
        f" of {', '.join(f'{t:.3f}' for t in times)}; hash {digest};"
        f" discovered {res.counters.scliques_discovered}; contractions {res.contractions};"
        f" ru_maxrss {rss_mb:.0f} MB",
        flush=True,
    )
    und = build_csr(edges)
    make_rank(und)
    rank_times = []
    for _ in range(CALLS):
        t = time.perf_counter()
        make_rank(und)
        rank_times.append(time.perf_counter() - t)
    print(
        f"rmat({log2_n}, {m}) ({r},{s}): make_rank median {statistics.median(rank_times):.4f} s"
        f" of {', '.join(f'{t:.4f}' for t in rank_times)}",
        flush=True,
    )

    ok = True
    ref = and_decomposition(edges, r, s).core
    ok &= check("core == AND", res.core_dict() == ref)
    if (r, s) == (2, 3):
        pkt = pkt_truss(edges)
        same = np.array_equal(pkt.edges, res.vmat) and np.array_equal(pkt.core, res.core)
        ok &= check("core == PKT", same)
    if i == 0:
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(und.n))
        g.add_edges_from(e for e in edges.tolist() if e[0] != e[1])
        want = nx.core_number(g)
        got = nucleus_decomposition(edges, 1, 2, _best_config(1, 2)).core_dict()
        ok &= check("(1,2) core == networkx.core_number", got == {(v,): c for v, c in want.items()})
    vmat, cnts = s_counts_per_r_clique(orient_csr(und, make_rank(und)), r, s)
    sample = np.random.default_rng(SEED).choice(len(vmat), min(SAMPLE, len(vmat)), replace=False)
    adj = functools.cache(lambda v: set(und.neighbors(v).tolist()))
    recount = [_cliques_in(set.intersection(*map(adj, vmat[j].tolist())), adj, s - r) for j in sample]
    same = recount == cnts[sample].tolist()
    ok &= check(f"s-clique counts of {len(sample)} sampled r-cliques == set recount", same)
    return ok


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, choices=range(len(CASES)))
    args = ap.parse_args()
    if args.case is not None:
        sys.exit(0 if run_case(args.case) else 1)
    runs = [subprocess.run([sys.executable, __file__, "--case", str(i)]) for i in range(len(CASES))]
    sys.exit(1 if any(run.returncode for run in runs) else 0)


if __name__ == "__main__":
    main()
