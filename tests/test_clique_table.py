"""Multi-level clique tables: lookup/decode roundtrips across every
configuration of §5.1-5.3, plus the space model."""
from itertools import combinations

import numpy as np
import pytest

from repro.cliques.listing import enumerate_cliques, s_counts_per_r_clique
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.orient import degree_order, make_rank, relabel
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.tables import clique_table
from repro.tables.clique_table import CliqueTable, RowIds, TableConfig, make_table, min_levels

from .fixtures import MEDIUM_GRAPHS, SMALL_GRAPHS

ALL = {**SMALL_GRAPHS, **MEDIUM_GRAPHS}


def cliques_of(name: str, r: int) -> tuple[np.ndarray, int]:
    """The r-cliques as T takes them, in lexicographic order; the kernel
    lists them in orientation order."""
    und = build_csr(ALL[name])
    dg = orient_csr(und, degree_order(und))
    vmat = enumerate_cliques(dg, r)
    return vmat[np.lexsort(vmat.T[::-1])], und.n


CONFIGS = [
    TableConfig(levels=1),
    TableConfig(levels=2, first_level="array", contiguous=True, decode="pointer"),
    TableConfig(levels=2, first_level="array", contiguous=True, decode="binsearch"),
    TableConfig(levels=2, first_level="array", contiguous=False, decode="binsearch"),
    TableConfig(levels=2, first_level="hash", contiguous=True, decode="pointer"),
    TableConfig(levels=3, first_level="hash", contiguous=True, decode="pointer"),
    TableConfig(levels=3, first_level="hash", contiguous=True, decode="binsearch"),
    TableConfig(levels=3, first_level="hash", contiguous=False, decode="binsearch"),
    TableConfig(levels=3, first_level="array", contiguous=True, decode="pointer"),
    TableConfig(levels=3, first_level="array", contiguous=False, decode="binsearch"),
]


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm", "rmat6", "comm-m"])
@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
@pytest.mark.parametrize("r", [3, 4])
def test_lookup_decode_roundtrip(name, cfg, r):
    vmat, n = cliques_of(name, r)
    if len(vmat) == 0 or cfg.levels > r:
        pytest.skip("no cliques or too many levels")
    t = CliqueTable(vmat, n, cfg)
    idx = t.lookup(vmat)
    assert (idx >= 0).all()
    assert len(np.unique(idx)) == len(vmat), "indices unique per clique"
    assert np.array_equal(t.decode(idx), vmat)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_row_indices_match_lookup(cfg):
    """An r-clique's id is its row: lookup maps rows to their row
    indices and decode maps row indices back to the rows."""
    vmat, n = cliques_of("er30", 3)
    t = CliqueTable(vmat, n, cfg)
    rows = np.arange(len(vmat))
    assert np.array_equal(t.lookup(vmat), rows)
    assert np.array_equal(t.decode(rows), vmat)


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_missing_lookup(cfg):
    vmat, n = cliques_of("er30", 3)
    t = CliqueTable(vmat, n, cfg)
    bogus = np.array([[0, 1, n - 1], [n - 3, n - 2, n - 1]])
    present = {tuple(r_) for r_ in vmat.tolist()}
    idx = t.lookup(bogus)
    for row, i in zip(bogus.tolist(), idx):
        if tuple(row) not in present:
            assert i == -1


@pytest.mark.parametrize("contiguous", [True, False])
def test_miss_returns_minus_one(contiguous):
    """A query T does not hold finds no cell, and the cell -1 maps to the
    row -1 through ``row_of_cell``'s extra last entry, with no branch;
    the queries it does hold get their rows, in query order."""
    vmat, n = cliques_of("er30", 3)
    cfg = TableConfig(levels=2, first_level="array", contiguous=contiguous, decode="binsearch")
    t = CliqueTable(vmat, n, cfg)
    assert len(t.row_of_cell) == t.capacity + 1 and t.row_of_cell[-1] == -1
    present = {tuple(row) for row in vmat.tolist()}
    absent = [row for row in combinations(range(n), 3) if row not in present][:50]
    q = np.concatenate([np.array(absent), vmat[::-1]])
    assert t.lookup(q).tolist() == [-1] * len(absent) + list(range(len(vmat)))[::-1]


@pytest.mark.parametrize("contiguous", [True, False])
def test_lookup_of_vertex_heading_no_region(contiguous):
    """Under the two-level array, a query whose first vertex heads no
    last-level region is absent, whatever its suffix."""
    vmat = np.array([[0, 1, 2], [0, 1, 3], [2, 3, 4]])
    cfg = TableConfig(levels=2, first_level="array", contiguous=contiguous, decode="binsearch")
    t = CliqueTable(vmat, 10, cfg)
    q = np.array([[1, 2, 3], [0, 1, 2], [3, 4, 5], [2, 3, 4], [0, 2, 3]])
    idx = t.lookup(q)
    assert idx[0] == -1 and idx[2] == -1 and idx[4] == -1
    assert np.array_equal(t.decode(idx[[1, 3]]), q[[1, 3]])


def test_two_level_saves_space_on_overlapping_cliques():
    """Fig 3's point: two-level beats one-level once r-cliques overlap."""
    vmat, n = cliques_of("comm-m", 4)
    one = CliqueTable(vmat, n, TableConfig(levels=1))
    two = CliqueTable(vmat, n, TableConfig(levels=2))
    assert two.memory_units() < one.memory_units()


def test_fig4_multilevel_pays_off_only_for_larger_r():
    """Figs 3-4 on the paper's own example: the 3-multi-level T beats the
    two-level T at r=4 (22 vs 25 units here; paper: 22 vs 24 one-level)
    but not at r=3, where r is too small for the extra level to pay."""
    v3, n = cliques_of("fig1", 3)
    v4, _ = cliques_of("fig1", 4)
    m = lambda v, cfg: CliqueTable(v, n, cfg).memory_units()
    three = TableConfig(levels=3, first_level="hash")
    two = TableConfig(levels=2, first_level="array")
    one = TableConfig(levels=1)
    assert m(v4, three) < m(v4, two) and m(v4, three) < m(v4, one)
    assert m(v3, three) > m(v3, two)


def test_memory_units_fig4_exact():
    """Fig 4: one-level T of the six 4-cliques takes 24 units, the
    3-multi-level T takes 22."""
    v4, n = cliques_of("fig1", 4)
    assert CliqueTable(v4, n, TableConfig(levels=1)).memory_units() == 24
    assert (
        CliqueTable(v4, n, TableConfig(levels=3, first_level="hash")).memory_units()
        == 22
    )


def test_memory_units_one_level_exact():
    vmat, n = cliques_of("fig1", 3)
    t = CliqueTable(vmat, n, TableConfig(levels=1))
    assert t.memory_units() == 14 * 3  # Fig 3: 42 units


def test_memory_units_two_level_exact():
    vmat, n = cliques_of("fig1", 3)
    t = CliqueTable(vmat, n, TableConfig(levels=2, first_level="array"))
    assert t.memory_units() == 7 + 14 * 2  # Fig 3: 35 units


def test_pointer_requires_contiguous():
    vmat, n = cliques_of("fig1", 3)
    with pytest.raises(ValueError):
        CliqueTable(vmat, n, TableConfig(levels=2, contiguous=False, decode="pointer"))


def test_min_levels_and_factory_auto_raise():
    n = 1 << 16  # 16 bits/vertex: 63 // 16 = 3 vertices max per key
    assert min_levels(n, 3) == 1
    assert min_levels(n, 4) == 2
    assert min_levels(n, 6) == 4
    g = np.random.default_rng(0)
    vmat = np.sort(g.integers(0, n, (20, 6)), axis=1)
    vmat = np.unique(vmat[np.all(np.diff(vmat, axis=1) > 0, axis=1)], axis=0)
    t = make_table(vmat, n, TableConfig(levels=1))
    assert t.config.levels >= 4
    assert np.array_equal(t.decode(t.lookup(vmat)), vmat)


def test_r1_table():
    vmat = np.arange(7).reshape(-1, 1)
    t = CliqueTable(vmat, 7, TableConfig(levels=1))
    idx = t.lookup(vmat)
    assert (idx >= 0).all()
    assert np.array_equal(t.decode(idx), vmat)


def test_empty_table():
    vmat = np.empty((0, 3), dtype=np.int64)
    t = CliqueTable(vmat, 5, TableConfig(levels=2))
    assert t.n_cliques == 0 and len(t.lookup(vmat)) == 0
    assert t.decode(np.arange(0)).shape == (0, 3)
    assert t.lookup(np.array([[0, 1, 2]]))[0] == -1


def test_levels_equal_r():
    vmat, n = cliques_of("k6", 4)
    t = CliqueTable(vmat, n, TableConfig(levels=4, first_level="hash"))
    idx = t.lookup(vmat)
    assert (idx >= 0).all()
    assert np.array_equal(t.decode(idx), vmat)


# (capacity, allocated_cells(), memory_units()) of the comm-m 3-cliques per
# experiments.T_CONFIGS label; the sizes are a function of the clique set
# and the configuration only, never of where keys land inside a region.
PINNED_SIZES = {
    "1-level (unopt)": (440, 440, 657),
    "2-level contig ptr": (514, 569, 493),
    "2-level contig binsearch": (514, 569, 493),
    "2-level noncontig binsearch": (514, 569, 493),
    "2-multi contig ptr": (514, 592, 514),
    "3-multi contig ptr": (652, 1020, 509),
    "3-multi contig binsearch": (652, 1020, 509),
}


def test_table_sizes_pinned():
    from repro.experiments import T_CONFIGS

    vmat, n = cliques_of("comm-m", 3)
    assert [label for label, _ in T_CONFIGS] == list(PINNED_SIZES)
    for label, cfg in T_CONFIGS:
        t = make_table(vmat, n, cfg)
        assert (t.capacity, t.allocated_cells(), t.memory_units()) == PINNED_SIZES[label], label


UNSORTED = "distinct and in lexicographic order"


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: c.label())
def test_unsorted_rows_rejected(cfg):
    """T takes its rows in counting's lexicographic order and checks it:
    shuffled rows, or two rows swapped, are refused."""
    vmat, n = cliques_of("comm", 3)
    shuffle = np.random.default_rng(5).permutation(len(vmat))
    with pytest.raises(ValueError, match=UNSORTED):
        CliqueTable(vmat[shuffle], n, cfg)
    swapped = vmat.copy()
    swapped[[7, 8]] = vmat[[8, 7]]
    with pytest.raises(ValueError, match=UNSORTED):
        CliqueTable(swapped, n, cfg)


@pytest.mark.parametrize("first_level", ["array", "hash"])
def test_wide_ids_roundtrip(first_level):
    """At n = 2^22 three ids take 66 bits, too many for one packed key; a
    3-level table of the sorted rows maps each row to its own cell, and
    shuffled rows are refused."""
    n, r = 1 << 22, 3
    assert n**r >= 2**63
    g = np.random.default_rng(11)
    vmat = g.choice(n, (600, r))
    vmat[:200, 0] = g.choice(4, 200)  # shared small ids: regions with many keys
    vmat = np.sort(vmat, axis=1)
    vmat = np.unique(vmat[np.all(np.diff(vmat, axis=1) > 0, axis=1)], axis=0)
    cfg = TableConfig(levels=3, first_level=first_level)
    t = CliqueTable(vmat, n, cfg)
    rows = np.arange(len(vmat))
    assert np.array_equal(t.lookup(vmat), rows)
    assert np.array_equal(t.decode(rows), vmat)
    with pytest.raises(ValueError, match=UNSORTED):
        CliqueTable(vmat[g.permutation(len(vmat))], n, cfg)


def test_duplicate_rows_rejected():
    for vmat in ([[0, 1, 2], [1, 2, 3], [0, 1, 2]], [[0, 1, 2], [0, 1, 2], [1, 2, 3]]):
        with pytest.raises(ValueError, match="distinct"):
            CliqueTable(np.array(vmat), 5, TableConfig(levels=1))


# ---------------------------------------------------------------- r <= 2
# Orientations whose rank is not the id order, and relabeling (rank = id).
RANKS = {
    "degree": degree_order,
    "degeneracy": make_rank,
    "random": lambda und: np.random.default_rng(und.n).permutation(und.n),
}


def row_ids(name, r, rank):
    """(RowIds, vmat, dg) of the r-cliques of a graph as a decomposition
    builds them: counting's rows, oriented by ``rank`` or relabeled."""
    und = build_csr(ALL[name])
    if rank == "relabel":
        und, _ = relabel(und, make_rank(und))
        dg = orient_csr(und, np.arange(und.n))
    else:
        dg = orient_csr(und, RANKS[rank](und))
    vmat = s_counts_per_r_clique(dg, r, r + 1)[0]
    return make_table(vmat, und.n, TableConfig(levels=3, first_level="hash"), dg), vmat, dg


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm", "rmat6", "comm-m"])
@pytest.mark.parametrize("rank", [*RANKS, "relabel"])
@pytest.mark.parametrize("r", [1, 2])
def test_row_ids_are_the_rows(name, rank, r):
    """At r <= 2 no T is built: each r-clique's id is its row, looked up
    through DG's arc map at r = 2 whatever the orientation, and decode
    gives the rows back."""
    t, vmat, dg = row_ids(name, r, rank)
    assert type(t) is RowIds and isinstance(t, CliqueTable)
    rows = np.arange(len(vmat))
    assert t.capacity == len(vmat)
    assert np.array_equal(t.lookup(vmat), rows)
    perm = np.random.default_rng(r).permutation(len(vmat))
    assert np.array_equal(t.lookup(vmat[perm]), perm)
    assert np.array_equal(t.decode(rows), vmat)
    assert np.array_equal(t.decode(perm), vmat[perm])
    assert (t.memory_units(), t.allocated_cells(), t.max_probe) == (0, 0, 0)
    if r == 1:
        assert np.array_equal(vmat[:, 0], np.arange(dg.n))


@pytest.mark.parametrize("name", ["fig1", "er30", "rmat6"])
@pytest.mark.parametrize("rank", [*RANKS, "relabel"])
def test_row_ids_miss_non_cliques(name, rank):
    """Every pair u < v that is not an edge is absent at r = 2, and at
    r = 1 so is a vertex at or above n, or below 0."""
    t, vmat, dg = row_ids(name, 2, rank)
    n = dg.n
    u, v = np.triu_indices(n, 1)
    pairs = np.stack([u, v], axis=1)
    edge = {tuple(e) for e in vmat.tolist()}
    found = t.lookup(pairs)
    for pair, i in zip(pairs.tolist(), found.tolist()):
        assert (i == -1) == (tuple(pair) not in edge)
        if i >= 0:
            assert vmat[i].tolist() == pair
    t1, _, _ = row_ids(name, 1, rank)
    q = np.array([[0], [n - 1], [n], [n + 5], [-1]])
    assert t1.lookup(q).tolist() == [0, n - 1, -1, -1, -1]


def test_row_ids_check_their_rows():
    """At r = 1 the rows must be every vertex in order; at r = 2 the
    edges of a given oriented graph."""
    with pytest.raises(ValueError, match="every vertex"):
        make_table(np.array([[0], [2]]), 3)
    und = build_csr(ALL["fig1"])
    dg = orient_csr(und, make_rank(und))
    vmat = s_counts_per_r_clique(dg, 2, 3)[0]
    with pytest.raises(ValueError, match="edges"):
        make_table(vmat, und.n)
    with pytest.raises(ValueError, match="edges"):
        make_table(vmat[1:], und.n, None, dg)


@pytest.mark.parametrize(
    "r,s,contraction", [(1, 2, False), (1, 3, False), (2, 3, False), (2, 3, True), (2, 4, False), (3, 4, False)]
)
def test_no_table_levels_at_r_le_2(monkeypatch, r, s, contraction):
    """A decomposition at r <= 2 builds no T level and inserts nothing; at
    r = 3 it still builds T."""
    built = []
    level_init = clique_table._Level.__init__

    def spy(self, *args):
        built.append(1)
        if r <= 2:
            raise AssertionError("a T level was built at r <= 2")
        level_init(self, *args)

    def no_insert(*args):
        raise AssertionError("T inserted at r <= 2")

    monkeypatch.setattr(clique_table._Level, "__init__", spy)
    if r <= 2:
        monkeypatch.setattr(clique_table, "insert", no_insert)
    res = nucleus_decomposition(ALL["comm"], r, s, DecompConfig(contraction=contraction))
    assert (len(built) > 0) == (r >= 3)
    if r <= 2:
        assert (res.table_memory_units, res.table_allocated_cells, res.table_max_probe) == (0, 0, 0)
        assert res.table_fill == 1.0
