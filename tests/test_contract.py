"""Direct tests of the §5.6 contraction heuristic."""
import numpy as np
import pytest

import repro.nucleus.decomp as decomp
from repro.graphs.csr import build_csr
from repro.nucleus.contract import ContractionState, maybe_contract
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition

from .fixtures import SMALL_GRAPHS


def _setup(name):
    """und, its state with edge ids 0..m-1 in (u, v), u < v, lexicographic
    order, those edges as rows, and a peeled array with every edge live."""
    und = build_csr(SMALL_GRAPHS[name])
    lower = und.arc_src < und.nbrs
    edges = np.stack([und.arc_src[lower], und.nbrs[lower]], axis=1)
    state = ContractionState(und, np.arange(len(edges)))
    return und, state, edges, np.full(len(edges), -1)


def _arc_edges(und, state):
    """Each arc's edge, as the id-ordered row its arc id names."""
    return np.sort(np.stack([und.arc_src, und.nbrs], axis=1), axis=1), state.arc_id


def test_no_contraction_below_threshold():
    und, state, edges, peeled = _setup("er30")
    peeled[:] = 0  # every edge peeled, but fewer than 2n counted since the check
    out = maybe_contract(und, state, peeled, 0, 2 * und.n - 1)
    assert out is und and state.contractions == 0


def test_contraction_requires_quarter_loss():
    und, state, edges, peeled = _setup("er30")
    out = maybe_contract(und, state, peeled, 0, 2 * und.n)  # volume met, nothing lost
    assert out is und and state.contractions == 0
    assert state.checked == 2 * und.n, "threshold counter resets after the check"
    peeled[(edges == 0).any(axis=1)] = 1  # vertex 0 now qualifies
    assert maybe_contract(und, state, peeled, 1, 4 * und.n - 1) is und
    assert maybe_contract(und, state, peeled, 1, 4 * und.n) is not und


def test_contraction_filters_peeled_edges():
    und, state, edges, peeled = _setup("k6")
    peeled[(edges == 0).any(axis=1)] = 0  # every edge incident to vertex 0
    out = maybe_contract(und, state, peeled, 0, 2 * und.n)
    assert state.contractions == 1
    assert out.degree(0) == 0
    # vertices 1..5 lost exactly their edge to 0 (they lost 1/5 < 1/4 of
    # their neighbours, so their own lists are only filtered from 0's side)
    for v in range(1, 6):
        assert 0 not in out.neighbors(v) or out.degree(v) == 5
    # the arc ids were filtered by the same mask as the arcs
    rows, ids = _arc_edges(out, state)
    assert len(ids) == out.m and (edges[ids] == rows).all()


def test_loss_counted_at_both_endpoints():
    und, state, edges, peeled = _setup("k4")
    peeled[[0, 1]] = 0  # edges (0, 1) and (0, 2)
    out = maybe_contract(und, state, peeled, 0, 2 * und.n)
    # 0 lost 2 of 3 neighbours, 1 and 2 lost 1 of 3: each reaches a quarter
    # only if the loss is counted at both endpoints of an edge
    assert [out.neighbors(v).tolist() for v in range(4)] == [[3], [2, 3], [1, 3], [0, 1, 2]]


def test_loss_carries_across_a_check_where_nothing_qualified():
    und, state, edges, peeled = _setup("k6")
    peeled[0] = 0  # edge (0, 1): 1 of 5 neighbours lost, below a quarter
    assert maybe_contract(und, state, peeled, 0, 2 * und.n) is und
    peeled[1] = 1  # edge (0, 2): 0 has now lost 2 of 5 since the start
    out = maybe_contract(und, state, peeled, 1, 4 * und.n)
    assert state.contractions == 1 and state.since == 1
    assert out.neighbors(0).tolist() == [3, 4, 5]


def test_contracted_csr_has_its_own_arc_set():
    und, state, edges, peeled = _setup("k6")
    before = und.arc_set  # cached on the input graph before contracting
    peeled[(edges == 0).any(axis=1)] = 0
    out = maybe_contract(und, state, peeled, 0, 2 * und.n)
    assert out is not und and out.arc_set is not before
    removed = np.setdiff1d(und.arc_keys, out.arc_keys)
    assert len(removed) > 0 and not out.arc_set.contains(removed).any()
    assert out.arc_set.contains(out.arc_keys).all()
    assert before.contains(removed).all(), "the input graph's set is untouched"


@pytest.mark.parametrize("relabel", [False, True])
def test_arc_ids_are_table_ids(monkeypatch, relabel):
    """In a real decomposition every arc's id is table T's id of its edge,
    on the graph T was built from, before and after each contraction."""
    tables, checks = [], []
    make_table, contract = decomp.make_table, decomp.maybe_contract

    def keep_table(*args):
        tables.append(make_table(*args))
        return tables[-1]

    def checked_contract(und, state, *args):
        out = contract(und, state, *args)
        rows, ids = _arc_edges(out, state)
        assert (tables[0].lookup(rows) == ids).all()
        checks.append(state.contractions)
        return out

    monkeypatch.setattr(decomp, "make_table", keep_table)
    monkeypatch.setattr(decomp, "maybe_contract", checked_contract)
    cfg = DecompConfig(relabel=relabel, contraction=True)
    res = nucleus_decomposition(SMALL_GRAPHS["er40"], 2, 3, cfg)
    assert res.contractions >= 1 and checks[-1] == res.contractions
