"""ARB-NUCLEUS-DECOMP vs the brute-force reference, across graphs,
(r, s) values, and every §5 optimization configuration."""
import re
from collections import Counter
from dataclasses import fields
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.bucketing import Bucketing
from repro.cliques import listing
from repro.experiments import _best_config
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.gen import rmat
from repro.graphs.orient import make_rank
from repro.instrument import Counters
from repro.nucleus import decomp
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import reference_nucleus
from repro.tables.clique_table import RowIds, TableConfig, make_table
from repro.tables.open_addr import KeySet

from .fixtures import FIG1_34_CORE, SMALL_GRAPHS

GRAPHS = ["fig1", "k4", "k6", "bowtie", "two-tri", "er30", "comm", "rmat6", "path6"]
RS = [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]


def run(name, r, s, **kw):
    cfg = DecompConfig(**kw)
    return nucleus_decomposition(SMALL_GRAPHS[name], r, s, cfg)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS)
def test_matches_reference_default_config(name, r, s):
    res = run(name, r, s)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


def test_fig1_34_exact():
    """The paper's worked example, verbatim."""
    res = run("fig1", 3, 4)
    assert res.core_dict() == FIG1_34_CORE
    assert res.rho == 3  # three peeling rounds in Figure 1
    assert res.max_core == 2


def test_fig1_23_is_truss():
    res = run("fig1", 2, 3)
    ref = reference_nucleus(SMALL_GRAPHS["fig1"], 2, 3)
    assert res.core_dict() == ref
    assert res.core_dict()[(0, 1)] == 3  # K5 edges survive to trussness 3


TABLE_CONFIGS = [
    TableConfig(levels=1),
    TableConfig(levels=2, first_level="array", decode="pointer"),
    TableConfig(levels=2, first_level="array", decode="binsearch"),
    TableConfig(levels=2, first_level="array", contiguous=False, decode="binsearch"),
    TableConfig(levels=2, first_level="hash", decode="pointer"),
    TableConfig(levels=3, first_level="hash", decode="pointer"),
    TableConfig(levels=3, first_level="hash", decode="binsearch"),
]


@pytest.mark.parametrize("cfg", TABLE_CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("comm", 3, 4), ("er30", 3, 4), ("er30", 2, 3)])
def test_all_table_configs_agree(cfg, name, r, s):
    """Every T configuration on three graphs at r = 3; at r = 2 no T is
    built, so the configuration has no effect."""
    res = run(name, r, s, table=cfg)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)
    if r <= 2:
        assert (res.table_memory_units, res.table_allocated_cells, res.table_max_probe) == (0, 0, 0)
    else:
        assert res.table_memory_units > 0 and res.table_allocated_cells > len(res.vmat)


@pytest.mark.parametrize("agg", ["array", "list-buffer", "hash"])
@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("er30", 2, 3), ("comm", 2, 4)])
def test_all_aggregators_agree(agg, name, r, s):
    res = run(name, r, s, aggregation=agg)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name,r,s", [("fig1", 3, 4), ("comm", 3, 4), ("er40", 2, 3)])
def test_relabeling_agrees(name, r, s):
    res = run(name, r, s, relabel=True)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name", ["fig1", "er30", "er40", "comm"])
def test_contraction_agrees(name):
    res = run(name, 2, 3, contraction=True)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], 2, 3)


def test_contraction_actually_contracts():
    res = run("er40", 2, 3, contraction=True)
    assert res.contractions >= 1


@pytest.mark.parametrize(
    "name,r,s",
    [("fig1", 3, 4), ("er30", 2, 3), ("comm", 2, 4), ("comm", 2, 5), ("rmat6", 3, 5), ("fig1", 1, 3)],
)
def test_dedup_updates_match_reference(name, r, s):
    assert run(name, r, s).core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


def test_dedup_updates_look_up_fewer_rows(monkeypatch):
    """Each round looks up the C(s, r) subsets of each distinct s-clique
    once, not once per listing of it."""
    sizes = []
    lookup = RowIds.lookup  # r = 2 builds no T

    def counting_lookup(self, rows):
        sizes.append(len(rows))
        return lookup(self, rows)

    monkeypatch.setattr(RowIds, "lookup", counting_lookup)

    res = run("comm", 2, 5, contraction=False)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS["comm"], 2, 5)
    assert 0 < sum(sizes) < comb(5, 2) * res.counters.scliques_discovered


def test_combined_optimizations():
    """The paper's overall-best setting: two-level contiguous stored-pointer
    T, list buffer, relabeling."""
    cfg = DecompConfig(
        table=TableConfig(levels=2, first_level="array", decode="pointer"),
        relabel=True,
        aggregation="list-buffer",
    )
    res = nucleus_decomposition(SMALL_GRAPHS["comm"], 3, 4, cfg)
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS["comm"], 3, 4)


def test_result_sorted_and_aligned():
    res = run("fig1", 2, 3)
    assert np.array_equal(res.vmat, res.vmat[np.lexsort((res.vmat[:, 1], res.vmat[:, 0]))])
    assert len(res.core) == len(res.vmat)


def test_rho_counts_rounds():
    res = run("k6", 2, 3)  # all K6 edges peel in one round
    assert res.rho == 1
    assert res.max_core == 4


def test_empty_r_clique_set():
    res = nucleus_decomposition(SMALL_GRAPHS["path6"], 3, 4)
    assert res.rho == 0 and len(res.vmat) == 0


def test_invalid_rs():
    with pytest.raises(ValueError):
        nucleus_decomposition(SMALL_GRAPHS["k4"], 3, 3)


@pytest.mark.parametrize(
    "r,s,named",
    [(2.0, 3, "r=2.0"), (2, 2.5, "s=2.5"), (0, 3, "r=0"), (3, 3, "r=3, s=3")],
)
def test_bad_r_s_fail_before_any_work(monkeypatch, r, s, named):
    """Non-integer r or s, and any pair outside 1 <= r < s, fail with a
    ValueError naming them before the graph is built."""

    def no_graph_work(*a, **kw):
        raise AssertionError("build_csr reached")

    monkeypatch.setattr(decomp, "build_csr", no_graph_work)
    with pytest.raises(ValueError, match=re.escape(named)):
        nucleus_decomposition(SMALL_GRAPHS["k4"], r, s)


@pytest.mark.parametrize("r,s", [(1, 3), (2, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("best", [False, True], ids=["default", "best"])
def test_peel_state_invariants(monkeypatch, best, r, s):
    """The run's ``Bucketing`` peels every r-clique exactly once, its
    levels never fall, and each r-clique's final count is at most its core."""
    kept = []

    class Kept(Bucketing):
        def __init__(self, counts):
            super().__init__(counts)
            self.ids, self.peeled = np.arange(len(counts)), []
            kept.append(self)

        def next_bucket(self):
            k, A = super().next_bucket()
            self.peeled.append(A)
            return k, A

    monkeypatch.setattr(decomp, "Bucketing", Kept)
    for name, edges in SMALL_GRAPHS.items():
        kept.clear()
        res = nucleus_decomposition(edges, r, s, _best_config(r, s) if best else DecompConfig())
        (b,) = kept
        peeled = np.concatenate([b.ids[:0], *b.peeled])
        assert np.array_equal(np.sort(peeled), np.sort(b.ids)), name
        assert np.count_nonzero(b.round >= 0) == len(b.ids) == len(res.vmat)
        assert len(b.levels) == res.rho
        assert (np.diff(b.levels) >= 0).all(), name
        core = np.array(b.levels, dtype=np.int64)[b.round[b.ids]]
        assert (b.count[b.ids] <= core).all(), name


@pytest.mark.parametrize(
    "kw,named",
    [
        (lambda: {"table": TableConfig(levels=2, first_level="Array")}, "'Array'"),
        (lambda: {"table": TableConfig(levels=2, decode="scan")}, "'scan'"),
        (lambda: {"table": TableConfig(levels=0)}, "levels must be >= 1, got 0"),
        (lambda: {"table": TableConfig(levels=-1)}, "levels must be >= 1, got -1"),
        (lambda: {"aggregation": "Hash"}, "'Hash'"),
        (lambda: {"relabel": "no"}, "relabel must be a bool, got 'no'"),
        (lambda: {"contraction": 1}, "contraction must be a bool, got 1"),
        (lambda: {"table": None}, "table must be a TableConfig, got None"),
    ],
    ids=[
        "first_level",
        "decode",
        "levels-zero",
        "levels-negative",
        "aggregation",
        "relabel-str",
        "contraction-int",
        "table-none",
    ],
)
def test_bad_config_rejected(kw, named):
    """A bad option fails where it is written, with a ValueError naming
    it: a bad ``TableConfig`` or ``DecompConfig`` raises on construction."""
    with pytest.raises(ValueError, match=re.escape(named)):
        DecompConfig(**kw())


@pytest.mark.parametrize(
    "name,value,named",
    [
        ("aggregation", "Hash", "aggregation must be one of"),
        ("relabel", "no", "relabel must be a bool, got 'no'"),
        ("contraction", None, "contraction must be a bool, got None"),
        ("table", None, "table must be a TableConfig, got None"),
    ],
)
def test_bad_assignment_rejected(name, value, named):
    """An option assigned after construction is checked as at construction,
    and a rejected value leaves the config as it was."""
    cfg = DecompConfig()
    before = DecompConfig()
    with pytest.raises(ValueError, match=re.escape(named)):
        setattr(cfg, name, value)
    assert cfg == before


def test_valid_assignment_accepted():
    """Assigning valid options after construction works, one at a time or
    several in one statement."""
    cfg = DecompConfig()
    cfg.aggregation = "hash"
    assert cfg.aggregation == "hash"
    cfg.relabel, cfg.contraction = np.bool_(True), False
    assert (cfg.relabel, cfg.contraction) == (True, False)


def test_config_has_four_options():
    """Where counting runs is not an option: the four fields are the §5
    optimizations. A name that is not a field stays a plain attribute
    the call never reads, as benchmark scripts written against older
    options still assign ``counting`` and ``spark_slices``."""
    assert [f.name for f in fields(DecompConfig)] == ["table", "relabel", "aggregation", "contraction"]
    cfg = _best_config(3, 4)
    plain = nucleus_decomposition(SMALL_GRAPHS["fig1"], 3, 4, cfg)
    cfg.counting, cfg.spark_slices = "spark", 4
    res = nucleus_decomposition(SMALL_GRAPHS["fig1"], 3, 4, cfg)
    assert np.array_equal(res.vmat, plain.vmat) and np.array_equal(res.core, plain.core)


@pytest.mark.parametrize("config", [0, "hash", {}], ids=["zero", "str", "dict"])
def test_config_not_a_decomp_config_rejected(monkeypatch, config):
    """A ``config`` that is neither a DecompConfig nor None fails before
    any graph work with a ValueError naming it: not even a falsy one runs
    with the defaults."""

    def no_graph_work(*a, **kw):
        raise AssertionError("build_csr reached")

    monkeypatch.setattr(decomp, "build_csr", no_graph_work)
    with pytest.raises(ValueError, match=re.escape(f"config must be a DecompConfig or None, got {config!r}")):
        nucleus_decomposition(SMALL_GRAPHS["k4"], 2, 3, config)


@pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (3, 4), (4, 5)])
@pytest.mark.parametrize("best", [False, True], ids=["default", "best"])
def test_id_arrays_have_n_r_entries(monkeypatch, r, s, best):
    """An r-clique's id is its row in counting's order at every r: T (or
    ``RowIds``) looks the rows up as 0..n_r-1, and every id-indexed array
    of the loop has n_r entries, whatever T's layout: the peel state's
    counts and rounds, the faces' ``face`` and ``col``, and the ids U can
    hold."""
    seen = {}
    for name in ("make_table", "Bucketing", "peel_faces", "make_aggregator"):
        monkeypatch.setattr(decomp, name, lambda *a, f=getattr(decomp, name), k=name: seen.setdefault(k, f(*a)))
    edges = SMALL_GRAPHS["comm"]
    res = nucleus_decomposition(edges, r, s, _best_config(r, s) if best else DecompConfig())
    n_r = len(res.vmat)
    assert n_r > 0 and res.core_dict() == reference_nucleus(edges, r, s)
    table, b, faces = seen["make_table"], seen["Bucketing"], seen["peel_faces"]
    rows = np.arange(n_r)
    assert np.array_equal(table.lookup(table.decode(rows)), rows)
    assert len(b.count) == len(b.round) == len(faces.face) == seen["make_aggregator"].n_ids == n_r
    assert faces.col is None if r == 1 else len(faces.col) == n_r
    assert faces.ids.max() < n_r


@pytest.mark.parametrize("spark", ["local[4]", 4, object()], ids=["str", "int", "object"])
def test_spark_not_a_session_rejected(spark):
    """A ``spark`` that is not a SparkSession fails before any graph work
    (the edge array here is malformed too) with a ValueError naming it."""
    with pytest.raises(ValueError, match="spark must be a pyspark.sql.SparkSession"):
        nucleus_decomposition(np.zeros((2, 3), dtype=np.int64), 3, 4, spark=spark)


@pytest.mark.parametrize("name,r,s", [("k7", 5, 6), ("k7", 6, 7), ("k7", 4, 7), ("fig1", 3, 4)])
def test_large_vertex_ids(name, r, s):
    """A copy at IDs shifted by 1500: a row of 6 such IDs packed as one
    base-n int64 key overflows, and wrapped keys sort the copies out of
    lexicographic order."""
    edges = np.concatenate([SMALL_GRAPHS[name], SMALL_GRAPHS[name] + 1500])
    ref = reference_nucleus(edges, r, s)
    und = build_csr(edges)
    vmat, _ = listing.s_counts_per_r_clique(orient_csr(und, make_rank(und)), r, s)
    assert [tuple(v) for v in vmat.tolist()] == sorted(ref)
    for cfg in (DecompConfig(), _best_config(r, s)):
        assert nucleus_decomposition(edges, r, s, cfg).core_dict() == ref


@pytest.mark.parametrize(
    "name,r,s", [("fig1", 3, 4), ("comm", 2, 4), ("rmat6", 3, 5), ("er40", 2, 3)]
)
def test_chunk_boundaries(monkeypatch, name, r, s):
    """One root / one peeled r-clique per chunk gives identical results."""
    edges = SMALL_GRAPHS[name]
    und = build_csr(edges)
    dg = orient_csr(und, make_rank(und))
    cfg = _best_config(r, s)
    vm, cnts = listing.s_counts_per_r_clique(dg, r, s)
    res = nucleus_decomposition(edges, r, s, cfg)
    monkeypatch.setattr(listing, "CHUNK", 1)
    vm1, cnts1 = listing.s_counts_per_r_clique(dg, r, s)
    res1 = nucleus_decomposition(edges, r, s, cfg)
    assert np.array_equal(vm1, vm) and np.array_equal(cnts1, cnts)
    assert np.array_equal(res1.vmat, res.vmat) and np.array_equal(res1.core, res.core)
    assert res1.counters.scliques_discovered == res.counters.scliques_discovered


def test_counters_populated():
    res = run("comm", 3, 4)
    c = res.counters
    assert c.work > 0 and c.span_logs > 0 and c.rounds == res.rho
    assert c.scliques_discovered > 0
    assert c.wall_seconds > 0


@pytest.mark.parametrize(
    "cfg",
    [TableConfig(levels=1), TableConfig(levels=2), TableConfig(levels=3, first_level="hash")],
    ids=lambda c: c.label(),
)
def test_table_fill_and_probe_reported(cfg):
    res = nucleus_decomposition(SMALL_GRAPHS["comm"], 3, 4, DecompConfig(table=cfg))
    assert isinstance(res.table_max_probe, int) and res.table_max_probe >= 0
    assert 0 < res.table_fill <= 0.5  # every region is sized at load <= 1/2
    capacity = make_table(res.vmat, build_csr(SMALL_GRAPHS["comm"]).n, cfg).capacity
    assert res.table_fill == len(res.vmat) / capacity
    assert res.table_max_probe > 0  # the comm triangles collide in every layout


def test_k_cores_match_classic_peeling():
    """(1,2) nucleus == k-core numbers; check against direct peeling."""
    from repro.graphs.csr import build_csr

    edges = SMALL_GRAPHS["er30"]
    res = run("er30", 1, 2)
    got = {v[0]: c for v, c in zip(res.vmat.tolist(), res.core.tolist())}
    und = build_csr(edges)
    # classic k-core peeling
    deg = und.degrees().copy().astype(int)
    alive = set(range(und.n))
    core = {}
    k = 0
    while alive:
        v = min(alive, key=lambda x: deg[x])
        k = max(k, deg[v])
        core[v] = k
        alive.remove(v)
        for w in und.neighbors(v):
            if int(w) in alive:
                deg[int(w)] -= 1
    assert got == core


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("name,r,s", [("comm", 3, 4), ("er40", 2, 3), ("rmat6", 2, 4)])
def test_result_sorted_with_and_without_relabeling(relabel, name, r, s):
    """Without relabeling the output keeps counting's lexicographic order;
    with it, rows mapped back to original ids are re-sorted, cores aligned."""
    res = nucleus_decomposition(SMALL_GRAPHS[name], r, s, DecompConfig(relabel=relabel))
    rows = [tuple(v) for v in res.vmat.tolist()]
    assert all(a < b for a, b in zip(rows, rows[1:]))
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)


def dying_vertex_graph(s: int) -> np.ndarray:
    """K7 on 0..6 plus vertices 7, 8 and 9, each adjacent to a different
    (s - 1)-subset of it. Every r-clique through an extra vertex lies in
    one s-clique and is peeled rounds before the K7's, whose UPDATE would
    list those dead s-cliques again."""
    edges = [(a, b) for a in range(7) for b in range(a + 1, 7)]
    edges += [(7 + x, v) for x in range(3) for v in range(x, x + s - 1)]
    return np.array(edges, dtype=np.int64)


def unpruned(dg, A_rows, need, counters, peeled):
    """The loop's UPDATE call with nothing peeled: every round -1."""
    live = np.full_like(peeled.round, -1)
    return listing.extend_cliques(dg, A_rows, need, counters, peeled._replace(round=live))


@pytest.mark.parametrize(
    "r,s,contraction",
    [
        (1, 3, False),
        (2, 3, False),
        (2, 3, True),
        (2, 4, False),
        (3, 4, False),
        (2, 5, False),
        (3, 5, False),
    ],
)
def test_dead_vertices_pruned(monkeypatch, r, s, contraction):
    """UPDATE skips the s-cliques through a completion peeled in an
    earlier round: discoveries fall strictly, and cores equal the
    reference."""
    edges = dying_vertex_graph(s)
    cfg = DecompConfig(contraction=contraction)
    pruned = nucleus_decomposition(edges, r, s, cfg)
    monkeypatch.setattr(decomp, "extend_cliques", unpruned)
    full = nucleus_decomposition(edges, r, s, cfg)
    assert pruned.core_dict() == full.core_dict() == reference_nucleus(edges, r, s)
    assert pruned.counters.scliques_discovered < full.counters.scliques_discovered
    assert pruned.counters.dead_scliques < full.counters.dead_scliques


@pytest.mark.parametrize("name,s", [("dying", 3), ("dying", 4), ("comm", 3), ("rmat6", 3), ("er40", 4)])
def test_no_dead_vertex_listed_at_r1(monkeypatch, name, s):
    """At r = 1 the completion test is exact: no s-clique UPDATE lists
    holds a vertex peeled in an earlier round. Without it some do."""
    edges = dying_vertex_graph(s) if name == "dying" else SMALL_GRAPHS[name]
    for listing_fn, dead_listed in ((listing.extend_cliques, False), (unpruned, True)):
        calls = []

        def spy(dg, A_rows, need, counters, peeled):
            out = listing_fn(dg, A_rows, need, counters, peeled)
            calls.append((A_rows[:, 0].copy(), out[0]))
            return out

        monkeypatch.setattr(decomp, "extend_cliques", spy)
        res = nucleus_decomposition(edges, 1, s)
        assert res.core_dict() == reference_nucleus(edges, 1, s)
        peeled = np.zeros(int(edges.max()) + 1, dtype=bool)
        peeled[res.vmat[res.core == 0, 0]] = True  # the k = 0 round lists nothing
        dead = []
        for A, out in calls:
            dead.append(peeled[out].any())
            peeled[A] = True
        assert any(dead) == dead_listed
        assert (res.counters.dead_scliques == 0) != dead_listed


@pytest.mark.parametrize("name", GRAPHS + ["dying"])
@pytest.mark.parametrize(
    "r,s,contraction",
    [(1, 3, False), (2, 3, False), (2, 3, True), (2, 4, False), (3, 4, False), (3, 5, False)],
)
def test_peeled_listing_is_subset(monkeypatch, name, r, s, contraction):
    """In every round, UPDATE with ``peeled`` returns a sub-multiset of the
    unfiltered rows over the same graph, and every row it drops holds an
    r-subset peeled in an earlier round."""
    edges = dying_vertex_graph(s) if name == "dying" else SMALL_GRAPHS[name]
    dropped = []

    def spy(dg, A_rows, need, counters, peeled):
        out = listing.extend_cliques(dg, A_rows, need, counters, peeled)
        full = unpruned(dg, A_rows, need, Counters(), peeled)[0]
        got, want = Counter(map(tuple, out[0].tolist())), Counter(map(tuple, full.tolist()))
        assert got <= want
        now = peeled.round[peeled.ids[0]]
        assert (peeled.round[peeled.ids] == now).all()
        for row in want - got:
            subs = np.sort(np.array(row))[list(combinations(range(r + need), r))]
            t = peeled.round[tables[0].lookup(subs)]
            assert ((t >= 0) & (t < now)).any()
        dropped.append(len(want) - len(got))
        return out

    make_table, tables = decomp.make_table, []
    monkeypatch.setattr(decomp, "make_table", lambda *a: tables.append(make_table(*a)) or tables[0])
    monkeypatch.setattr(decomp, "extend_cliques", spy)
    res = nucleus_decomposition(edges, r, s, DecompConfig(contraction=contraction))
    assert res.core_dict() == reference_nucleus(edges, r, s)
    if name == "dying":
        assert sum(dropped) > 0, "some round drops a dead s-clique"


@pytest.mark.parametrize("name", ["fig1", "k7", "er40", "comm", "rmat6"])
@pytest.mark.parametrize("r,s", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("relabel", [False, True])
def test_loop_reads_ids_from_update(monkeypatch, name, r, s, relabel):
    """At r = 1 and (2,3) UPDATE names every r-subset of what it lists, so
    the loop itself neither dedups rows (``row_ranks``) nor looks ids up
    (``table.lookup``); UPDATE's own r = 2 probe still asks the table.
    Under relabeling the one ``row_ranks`` call re-sorts the output after
    the loop. At (2,4) and (3,4) the loop does both, every round that
    lists an s-clique."""
    calls = Counter()
    in_update = []
    row_ranks = decomp.row_ranks

    def ranks_spy(*a):
        calls["row_ranks"] += 1
        return row_ranks(*a)

    def update_spy(*a):
        in_update.append(True)
        try:
            return listing.extend_cliques(*a)
        finally:
            in_update.pop()

    def table_spy(*a):
        table = make_table(*a)
        lookup = table.lookup

        def lookup_spy(vmat):
            calls["update lookup" if in_update else "loop lookup"] += 1
            return lookup(vmat)

        table.lookup = lookup_spy
        return table

    monkeypatch.setattr(decomp, "row_ranks", ranks_spy)
    monkeypatch.setattr(decomp, "extend_cliques", update_spy)
    monkeypatch.setattr(decomp, "make_table", table_spy)
    edges = SMALL_GRAPHS[name]
    res = nucleus_decomposition(edges, r, s, DecompConfig(relabel=relabel))
    assert res.core_dict() == reference_nucleus(edges, r, s)
    if r == 1 or (r, s) == (2, 3):
        assert calls["row_ranks"] == int(relabel) and calls["loop lookup"] == 0
        assert (calls["update lookup"] > 0) == (r == 2)
    else:
        assert calls["row_ranks"] - int(relabel) == calls["loop lookup"] > 0


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("s", [2, 3, 4])
def test_no_dead_scliques_at_r1(name, s):
    """At r = 1 UPDATE lists no s-clique the loop then discards."""
    for cfg in (DecompConfig(), _best_config(1, s)):
        assert nucleus_decomposition(SMALL_GRAPHS[name], 1, s, cfg).counters.dead_scliques == 0


@pytest.mark.parametrize("name", GRAPHS + ["dying", "skitter-23"])
def test_no_dead_scliques_at_23(name):
    """At (2,3) UPDATE lists no triangle the loop then discards: of its
    three edges, one is the row, peeled now, and the completed and the
    probed edge are tested by peel round before the triangle is listed."""
    if name == "skitter-23":
        edges = rmat(12, 20000, seed=14)
    else:
        edges = dying_vertex_graph(3) if name == "dying" else SMALL_GRAPHS[name]
    configs = [DecompConfig(), DecompConfig(relabel=True), _best_config(2, 3)]
    configs.append(DecompConfig(contraction=True, relabel=True))
    for cfg in configs:
        assert nucleus_decomposition(edges, 2, 3, cfg).counters.dead_scliques == 0


@pytest.mark.parametrize("r,s", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("best", [False, True])
def test_only_dg_builds_an_arc_map(monkeypatch, r, s, best):
    """A decomposition builds one KeySet, DG's arc map, once: no
    undirected CSR, the input's or a contracted one, builds its own. At
    (1, 2) no arc is ever probed, so none is built."""
    built, oriented = [], []
    init, orient = KeySet.__init__, decomp.orient_csr

    def counted_init(self, keys):
        built.append(self)
        init(self, keys)

    monkeypatch.setattr(KeySet, "__init__", counted_init)
    monkeypatch.setattr(decomp, "orient_csr", lambda *a: oriented.append(orient(*a)) or oriented[0])
    cfg = _best_config(r, s) if best else DecompConfig(contraction=(r, s) == (2, 3))
    res = nucleus_decomposition(SMALL_GRAPHS["er40"], r, s, cfg)
    assert res.contractions >= ((r, s) == (2, 3))
    (dg,) = oriented
    assert built == ([] if s == 2 else [dg.__dict__["arc_set"]])
