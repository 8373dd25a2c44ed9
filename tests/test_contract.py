"""Direct tests of the §5.6 contraction heuristic."""
import numpy as np
import pytest

import repro.nucleus.decomp as decomp
from repro.cliques.listing import peel_faces
from repro.experiments import _best_config
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.orient import make_rank
from repro.nucleus.contract import ContractionState, maybe_contract
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import reference_nucleus

from .fixtures import MEDIUM_GRAPHS, SMALL_GRAPHS


def _setup(name):
    """und's r = 2 faces with edge ids 0..m-1 in (u, v), u < v,
    lexicographic order, a fresh state, those edges as rows, and a peeled
    array with every edge live."""
    und = build_csr(SMALL_GRAPHS[name])
    lower = und.arc_src < und.nbrs
    edges = np.stack([und.arc_src[lower], und.nbrs[lower]], axis=1)
    dg = orient_csr(und, make_rank(und))
    faces = peel_faces(und, dg, edges)
    return faces, ContractionState(), edges, np.full(len(edges), -1)


def _arc_edges(faces):
    """Each arc's edge, as the id-ordered row its arc id names."""
    csr = faces.csr
    return np.sort(np.stack([csr.arc_src, csr.nbrs], axis=1), axis=1), faces.ids


def test_no_contraction_below_threshold():
    faces, state, edges, peeled = _setup("er30")
    n = faces.csr.n
    peeled[:] = 0  # every edge peeled, but fewer than 2n counted since the check
    out = maybe_contract(faces, state, peeled, 0, 2 * n - 1)
    assert out is faces and state.contractions == 0


def test_contraction_requires_quarter_loss():
    faces, state, edges, peeled = _setup("er30")
    n = faces.csr.n
    out = maybe_contract(faces, state, peeled, 0, 2 * n)  # volume met, nothing lost
    assert out is faces and state.contractions == 0
    assert state.checked == 2 * n, "threshold counter resets after the check"
    peeled[(edges == 0).any(axis=1)] = 1  # vertex 0 now qualifies
    assert maybe_contract(faces, state, peeled, 1, 4 * n - 1) is faces
    assert maybe_contract(faces, state, peeled, 1, 4 * n) is not faces


def test_contraction_filters_peeled_edges():
    faces, state, edges, peeled = _setup("k6")
    peeled[(edges == 0).any(axis=1)] = 0  # every edge incident to vertex 0
    out = maybe_contract(faces, state, peeled, 0, 2 * faces.csr.n)
    assert state.contractions == 1
    assert out.csr.degree(0) == 0
    # vertices 1..5 lost exactly their edge to 0 (they lost 1/5 < 1/4 of
    # their neighbours, so their own lists are only filtered from 0's side)
    for v in range(1, 6):
        assert 0 not in out.csr.neighbors(v) or out.csr.degree(v) == 5
    # the arc ids were filtered by the same mask as the arcs
    rows, ids = _arc_edges(out)
    assert len(ids) == out.csr.m and (edges[ids] == rows).all()


def test_loss_counted_at_both_endpoints():
    faces, state, edges, peeled = _setup("k4")
    peeled[[0, 1]] = 0  # edges (0, 1) and (0, 2)
    out = maybe_contract(faces, state, peeled, 0, 2 * faces.csr.n).csr
    # 0 lost 2 of 3 neighbours, 1 and 2 lost 1 of 3: each reaches a quarter
    # only if the loss is counted at both endpoints of an edge
    assert [out.neighbors(v).tolist() for v in range(4)] == [[3], [2, 3], [1, 3], [0, 1, 2]]


def test_loss_carries_across_a_check_where_nothing_qualified():
    faces, state, edges, peeled = _setup("k6")
    n = faces.csr.n
    peeled[0] = 0  # edge (0, 1): 1 of 5 neighbours lost, below a quarter
    assert maybe_contract(faces, state, peeled, 0, 2 * n) is faces
    peeled[1] = 1  # edge (0, 2): 0 has now lost 2 of 5 since the start
    out = maybe_contract(faces, state, peeled, 1, 4 * n)
    assert state.contractions == 1 and state.since == 1
    assert out.csr.neighbors(0).tolist() == [3, 4, 5]


def test_contracted_csr_has_its_own_arc_set():
    faces, state, edges, peeled = _setup("k6")
    und = faces.csr
    before = und.arc_set  # cached on the input graph before contracting
    peeled[(edges == 0).any(axis=1)] = 0
    out = maybe_contract(faces, state, peeled, 0, 2 * und.n).csr
    assert out is not und and out.arc_set is not before
    removed = np.setdiff1d(und.arc_keys, out.arc_keys)
    assert len(removed) > 0 and not out.arc_set.contains(removed).any()
    assert out.arc_set.contains(out.arc_keys).all()
    assert before.contains(removed).all(), "the input graph's set is untouched"


@pytest.mark.parametrize("relabel", [False, True])
def test_arc_ids_are_table_ids(monkeypatch, relabel):
    """In a real decomposition every completion's id is table T's id of
    its edge, on the graph T was built from, before and after each
    contraction."""
    tables, checks = [], []
    make_table, contract = decomp.make_table, decomp.maybe_contract

    def keep_table(*args):
        tables.append(make_table(*args))
        return tables[-1]

    def checked_contract(faces, state, *args):
        out = contract(faces, state, *args)
        rows, ids = _arc_edges(out)
        assert (tables[0].lookup(rows) == ids).all()
        checks.append(state.contractions)
        return out

    monkeypatch.setattr(decomp, "make_table", keep_table)
    monkeypatch.setattr(decomp, "maybe_contract", checked_contract)
    cfg = DecompConfig(relabel=relabel, contraction=True)
    res = nucleus_decomposition(SMALL_GRAPHS["er40"], 2, 3, cfg)
    assert res.contractions >= 1 and checks[-1] == res.contractions


@pytest.mark.parametrize("name", ["er40", "er60", "comm-m"])
def test_faces_follow_contracted_degrees(monkeypatch, name):
    """After every contraction in a real (2,3) decomposition, each live
    edge's face is its endpoint of lower degree in the contracted graph,
    the lower id on a tie, and ``col`` names its other endpoint. Some
    live edge's face moves at a contraction, so a stale face fails."""
    moved = []
    contract = decomp.maybe_contract

    def checked_contract(faces, state, peeled, *args):
        before, count = faces.face.copy(), state.contractions
        out = contract(faces, state, peeled, *args)
        if state.contractions > count:
            csr = out.csr
            live = (csr.arc_src < csr.nbrs) & (peeled[out.ids] < 0)
            u, v, ids = csr.arc_src[live], csr.nbrs[live], out.ids[live]
            deg = csr.degrees()
            face = np.where(deg[u] <= deg[v], u, v)
            assert np.array_equal(out.face[ids], face)
            assert np.array_equal(np.where(out.col[ids] == 1, v, u), u + v - face)
            moved.append(int((before[ids] != face).sum()))
        return out

    monkeypatch.setattr(decomp, "maybe_contract", checked_contract)
    edges = {**SMALL_GRAPHS, **MEDIUM_GRAPHS}[name]
    res = nucleus_decomposition(edges, 2, 3, DecompConfig(contraction=True))
    assert res.contractions == len(moved) >= 1 and sum(moved) > 0
    assert res.core_dict() == reference_nucleus(edges, 2, 3)


@pytest.mark.parametrize("name", ["er40", "comm"])
@pytest.mark.parametrize(
    "r,s,cfg", [(2, 5, _best_config(2, 5)), (2, 3, DecompConfig())], ids=["2-5-best", "2-3-default"]
)
def test_no_contraction_state_without_contraction(monkeypatch, name, r, s, cfg):
    """The contraction state is built only when contraction runs, yet the
    r = 2 runs that do not contract still take their faces' ids."""

    def refuse():
        raise AssertionError("ContractionState built without contraction")

    monkeypatch.setattr(decomp, "ContractionState", refuse)
    res = nucleus_decomposition(SMALL_GRAPHS[name], r, s, cfg)
    assert res.contractions == 0
    assert res.core_dict() == reference_nucleus(SMALL_GRAPHS[name], r, s)
