"""ARB-NUCLEUS-DECOMP (Algorithm 2) with the §5 practical optimizations.

Phases:

1. Orient the graph by its degeneracy order, an O(alpha)-orientation
   (optionally relabel vertices by orientation rank, §5.4).
2. Count the s-cliques incident on every r-clique with REC-LIST-CLIQUES
   — locally, or on the Spark session the call is given (spark_count).
3. Index the r-cliques. An r-clique's id is its row in counting's
   lexicographic order at every r, so every id-indexed array of the
   loop has n_r entries. At r >= 3 the configurable multi-level hash
   table T (§5.1-5.3) stores the r-cliques and maps rows to its cells
   and back. At r <= 2 the graph already indexes them, so no T is built
   (``RowIds``): the row is the vertex at r = 1, and at r = 2 an edge is
   looked up as its arc in DG's arc map. Either way the loop asks the
   same two queries, lookup and decode.
4. Peel rounds over ``Bucketing``, the one peel state: each r-clique's
   count and peel round, and each round's level k, from which the core
   numbers are read at the end. Extract the r-cliques at or below k,
   re-list the s-cliques incident to them (UPDATE), keep one listing
   per distinct s-clique and lower the structure's counts by 1 per kept
   listing in place (the sum of UPDATE-FUNC's 1/a per listing);
   aggregate the updated set U with the chosen §5.5 structure and
   report it to the structure, which re-buckets it. At r = 1 and (2,3)
   UPDATE names every r-subset of what it lists, so the round keeps the
   listing from each s-clique's least id peeled this round
   (``least_id_listings``) and looks nothing up; elsewhere it dedups
   the sorted rows with a row rank and looks the r-subsets up in the id
   map. UPDATE draws each peeled r-clique's I_R from the completions of
   its face (``listing.Faces``), each carrying the id of the r-clique
   it completes, and drops those peeled in an earlier round, whose
   s-cliques are all dead. The faces
   are the loop's only graph state, built once by ``peel_faces`` (at
   r >= 3 the (r-1)-faces of the r-cliques, at r <= 2 the vertices of
   the graph); §5.6 contraction, at (2,3) only, filters them. Each
   completion is then probed in DG's arc map, the only arc structure; at
   r = 2 the probed edge is an r-clique as well, whose id the id map
   gives, and UPDATE drops a completion whose probed edge was peeled
   earlier.

The peeling loop runs driver-side over numpy structures: with thousands
of rounds, per-round Spark jobs would measure scheduler overhead rather
than the algorithm (see DESIGN.md §2); Spark parallelizes the dominant
counting phase only; graph preparation runs driver-side as well.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, log2

import numpy as np

from ..aggregation import check_kind, make_aggregator
from ..bucketing import Bucketing
from ..cliques.listing import Peeled, extend_cliques, peel_faces, s_counts_per_r_clique
from ..graphs.csr import build_csr, orient_csr
from ..graphs.orient import make_rank, relabel
from ..instrument import Counters
from ..tables.clique_table import TableConfig, make_table
from ..tables.packing import row_ranks
from .contract import ContractionState, maybe_contract

__all__ = ["DecompConfig", "DecompResult", "nucleus_decomposition"]


@dataclass
class DecompConfig:
    """The options of one decomposition, checked where they are written,
    at construction or by a later assignment, before any graph work. A
    Spark session given to the call, not an option, decides the counting."""

    table: TableConfig = field(default_factory=TableConfig)  # §5.1-5.3; no effect at r <= 2
    relabel: bool = False  # §5.4 graph relabeling
    aggregation: str = "list-buffer"  # §5.5: one of aggregation.KINDS
    contraction: bool = False  # §5.6, (2,3) only

    def __setattr__(self, name, value):
        if name == "aggregation":
            check_kind(value)
        elif name in ("relabel", "contraction") and not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be a bool, got {value!r}")
        elif name == "table" and not isinstance(value, TableConfig):
            raise ValueError(f"table must be a TableConfig, got {value!r}")
        super().__setattr__(name, value)


@dataclass
class DecompResult:
    vmat: np.ndarray  # (n_r, r) r-cliques, sorted vertex rows, original labels
    core: np.ndarray  # (n_r,) (r,s)-clique core numbers, aligned with vmat
    rho: int  # number of peeling rounds
    max_core: int
    counters: Counters
    # table T's space and probes, the only fields T's layout moves; at
    # r <= 2 no T is built: 0 units, 0 cells, max_probe 0 and fill n_r / n_r
    table_memory_units: int
    table_allocated_cells: int
    table_max_probe: int  # longest insert distance from a key's home slot
    table_fill: float  # n_r / last-level cells (barriers included)
    contractions: int = 0

    def core_dict(self) -> dict[tuple[int, ...], int]:
        return {tuple(row): int(c) for row, c in zip(self.vmat, self.core)}


def least_id_listings(ids: np.ndarray, st: np.ndarray, now: int) -> np.ndarray:
    """Mask of the UPDATE listings a round keeps when UPDATE names every
    r-subset of each (``ids``, column 0 the source's, ``st`` their peel
    rounds): a listed s-clique S is kept from the least id among its
    r-subsets peeled this round (``now``). UPDATE lists S from each of
    them or, dead, from none, so S is kept exactly once."""
    return ~((st == now) & (ids < ids[:, :1])).any(axis=1)


def nucleus_decomposition(
    edges: np.ndarray,
    r: int,
    s: int,
    config: DecompConfig | None = None,
    *,
    spark=None,
    n: int | None = None,
) -> DecompResult:
    """Compute the (r, s) nucleus decomposition of an undirected edge list,
    counting s-cliques on the ``spark`` session if one is given."""
    try:
        r, s = operator.index(r), operator.index(s)
    except TypeError:
        raise ValueError(f"r and s must be integers, got r={r!r}, s={s!r}") from None
    if not 1 <= r < s:
        raise ValueError(f"need 1 <= r < s, got r={r}, s={s}")
    if spark is not None:
        from pyspark.sql import SparkSession

        if not isinstance(spark, SparkSession):
            raise ValueError(f"spark must be a pyspark.sql.SparkSession or None, got {spark!r}")
    if config is None:
        config = DecompConfig()
    elif not isinstance(config, DecompConfig):
        raise ValueError(f"config must be a DecompConfig or None, got {config!r}")
    t_start = time.perf_counter()
    counters = Counters()

    und = build_csr(edges, n)
    n_verts = und.n
    rank = make_rank(und)
    perm = None
    if config.relabel:
        und, perm = relabel(und, rank)
        rank = np.arange(n_verts)
    dg = orient_csr(und, rank)

    # ---- Phase 1: count s-cliques per r-clique (Alg 2 lines 20-22) ----
    if spark is not None:
        from ..cliques.spark_count import spark_s_counts

        vmat, cnts = spark_s_counts(spark, dg, r, s, counters=counters)
    else:
        vmat, cnts = s_counts_per_r_clique(dg, r, s, counters=counters)
    counters.span_logs += s * log2(max(2, n_verts))
    n_r = len(vmat)

    table = make_table(vmat, n_verts, config.table, dg)
    buckets = Bucketing(cnts)
    counts, peeled = buckets.count, buckets.round
    agg = make_aggregator(config.aggregation, n_r)
    log2n = log2(max(2, n_verts))
    subs_cols = np.array(list(combinations(range(s), r)), dtype=np.int64)
    est_per_peel = comb(s, r) - 1

    faces = peel_faces(und, dg, vmat)
    cstate = ContractionState() if config.contraction and (r, s) == (2, 3) else None

    # ---- Phase 2: peel (Alg 2 lines 23-29) ----
    while not buckets.empty():
        k, A = buckets.next_bucket()
        now = len(buckets.levels) - 1  # this round
        counters.span_logs += log2n
        counters.work += len(A)
        agg.begin_round(len(A), est_per_peel * max(1, k))

        s_mat, ids = np.empty((0, s), dtype=np.int64), None
        if k > 0:  # a k = 0 bucket has no incident s-clique left to list
            s_mat, ids = extend_cliques(dg, table.decode(A), s - r, counters, Peeled(peeled, A, faces, table))
        counters.span_logs += (s - r) * log2n

        if len(s_mat):
            # a valid S is listed once per r-subset in A, i.e. a times,
            # so 1 per distinct S sums to the paper's 1/a per listing
            counters.work += s_mat.size
            counters.span_logs += log2(max(2, len(s_mat)))
            if ids is None:  # one row per distinct S, then its r-subsets' ids
                s_mat.sort(axis=1)
                s_mat = row_ranks(s_mat, n_verts)[1]
                idxs = table.lookup(s_mat[:, subs_cols].reshape(-1, r)).reshape(len(s_mat), len(subs_cols))
                st = peeled[idxs]
            else:  # UPDATE gave the ids: one listing per S, from its least id in A
                st = peeled[ids]
                first = least_id_listings(ids, st, now)
                idxs, st = ids[first], st[first]
            prev = (st >= 0) & (st < now)
            valid = ~prev.any(axis=1)
            counters.dead_scliques += len(valid) - int(np.count_nonzero(valid))
            tgt = idxs[(st == -1) & valid[:, None]]
            np.subtract.at(counts, tgt, 1)
            if len(tgt):
                agg.record(tgt)
            counters.work += idxs.size

        u_ids = agg.drain()
        buckets.update(u_ids)
        counters.work += len(u_ids)

        if cstate is not None:
            faces = maybe_contract(faces, cstate, peeled, now, n_r - buckets.n_remaining)

    counters.rounds = len(buckets.levels)
    counters.serialized_ops += agg.serialized_ops
    counters.work += agg.clear_work
    counters.wall_seconds = time.perf_counter() - t_start

    # counting returns vmat in lexicographic order; relabeled rows need
    # their original labels and a re-sort
    core = np.array(buckets.levels, dtype=np.int64)[peeled]
    out_vmat, out_core = vmat, core
    if perm is not None:
        row_rank, out_vmat = row_ranks(np.sort(perm[vmat], axis=1), n_verts)
        out_core = np.empty_like(core)
        out_core[row_rank] = core
    return DecompResult(
        vmat=out_vmat,
        core=out_core,
        rho=counters.rounds,
        max_core=int(out_core.max()) if n_r else 0,
        counters=counters,
        table_memory_units=table.memory_units(),
        table_allocated_cells=table.allocated_cells(),
        table_max_probe=table.max_probe,
        table_fill=n_r / table.capacity if table.capacity else 0.0,
        contractions=cstate.contractions if cstate else 0,
    )
