"""Work-span instrumentation and the Brent-bound time simulator.

The paper analyses ARB-NUCLEUS-DECOMP in the work-span model and runs on
a 30-core (60 hyper-thread) shared-memory machine. The reproduction
runs on 4 cores under Spark, so scalability tables (Fig 14) and
contention effects (Fig 11) are reported through the model the paper
itself uses: ``T_P = W / P + S`` (Brent's theorem), where W
aggregates counted operations, and S aggregates per-round critical-path
terms: a log(n) factor for the bucket extraction / hash-table rounds
plus any *serialized* operations (e.g. the simple-array aggregator's
shared fetch-and-add). Wall-clock numbers on the real machine are
reported alongside wherever they are meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Counters", "simulated_time", "self_relative_speedup"]


@dataclass
class Counters:
    work: float = 0.0  # total counted operations
    span_logs: float = 0.0  # sum of O(log n) critical-path terms
    serialized_ops: float = 0.0  # operations that serialize (span, not work/P)
    rounds: int = 0
    scliques_discovered: int = 0  # paper's AND-vs-ARB work metric
    dead_scliques: int = 0  # distinct listed s-cliques the peeling loop discards
    wall_seconds: float = 0.0


def simulated_time(c: Counters, p: int) -> float:
    """Brent bound T_P = W/P + S, in abstract operation units."""
    return c.work / p + (c.span_logs + c.serialized_ops)


def self_relative_speedup(c: Counters, p: int) -> float:
    return simulated_time(c, 1) / simulated_time(c, p)
