"""At-scale check of the best configuration on three rMAT graphs.

    python jobs/run_scale_check.py             # every case, each in its own process
    python jobs/run_scale_check.py --case 1    # one case, in this process

A case generates ``rmat(log2_n, m, seed=3)``, makes one warm-up call of
``nucleus_decomposition`` with ``experiments._best_config`` and then
three timed calls, and prints one line: the median of the three calls,
a hash of ``core`` and ``vmat`` (equal hashes mean equal outputs), the
s-cliques UPDATE listed (``scliques_discovered``) and the process's peak
RSS (``ru_maxrss``). Each case runs in a child process, so the RSS is
that case's own; at ``rmat(17, 1M)`` it is mostly the generator's. A
second line gives the orientation's cost on the case's graph: the
median of as many warm ``make_rank`` calls on its CSR, timed after the
RSS is read.
"""
from __future__ import annotations

import argparse
import hashlib
import resource
import statistics
import subprocess
import sys
import time

from _common import SRC  # noqa: F401  (puts repro on the path)

CASES = [(14, 300_000, 3, 4), (13, 150_000, 2, 4), (17, 1_000_000, 2, 3)]
SEED = 3
CALLS = 3


def run_case(i: int) -> None:
    from repro.experiments import _best_config
    from repro.graphs.csr import build_csr
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
        f" discovered {res.counters.scliques_discovered}; ru_maxrss {rss_mb:.0f} MB",
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--case", type=int, choices=range(len(CASES)))
    args = ap.parse_args()
    if args.case is not None:
        run_case(args.case)
        return
    for i in range(len(CASES)):
        subprocess.run([sys.executable, __file__, "--case", str(i)], check=True)


if __name__ == "__main__":
    main()
