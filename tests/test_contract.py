"""Direct tests of the §5.6 contraction heuristic."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr
from repro.nucleus.contract import ContractionState, maybe_contract

from .fixtures import SMALL_GRAPHS


def _never_peeled(rows):
    return np.zeros(len(rows), dtype=bool)


def test_no_contraction_below_threshold():
    und = build_csr(SMALL_GRAPHS["er30"])
    state = ContractionState(und)
    state.peeled_since = 2 * und.n - 1
    out = maybe_contract(und, state, _never_peeled)
    assert out is und and state.contractions == 0


def test_contraction_requires_quarter_loss():
    und = build_csr(SMALL_GRAPHS["er30"])
    state = ContractionState(und)
    state.peeled_since = 2 * und.n  # volume threshold met, no vertex qualifies
    out = maybe_contract(und, state, _never_peeled)
    assert out is und and state.contractions == 0
    assert state.peeled_since == 0, "threshold counter resets after the check"


def test_contraction_filters_peeled_edges():
    und = build_csr(SMALL_GRAPHS["k6"])
    state = ContractionState(und)
    # pretend every edge incident to vertex 0 was peeled
    rows = np.stack([np.zeros(5, np.int64), np.arange(1, 6)], axis=1)
    state.note_peeled_edges(rows)
    state.peeled_since = 2 * und.n

    def peeled(q):
        return (q[:, 0] == 0) | (q[:, 1] == 0)

    out = maybe_contract(und, state, peeled)
    assert state.contractions == 1
    assert out.degree(0) == 0
    # vertices 1..5 lost exactly their edge to 0 (they lost 1/5 < 1/4 of
    # their neighbours, so their own lists are only filtered from 0's side)
    for v in range(1, 6):
        assert 0 not in out.neighbors(v) or out.degree(v) == 5


def test_note_peeled_edges_counts_both_endpoints():
    und = build_csr(SMALL_GRAPHS["k4"])
    state = ContractionState(und)
    state.note_peeled_edges(np.array([[0, 1], [0, 2]]))
    assert state.lost_since[0] == 2
    assert state.lost_since[1] == 1 and state.lost_since[2] == 1
    assert state.peeled_since == 2


def test_contracted_csr_has_its_own_arc_set():
    und = build_csr(SMALL_GRAPHS["k6"])
    before = und.arc_set  # cached on the input graph before contracting
    state = ContractionState(und)
    state.note_peeled_edges(np.stack([np.zeros(5, np.int64), np.arange(1, 6)], axis=1))
    state.peeled_since = 2 * und.n
    out = maybe_contract(und, state, lambda q: (q[:, 0] == 0) | (q[:, 1] == 0))
    assert out is not und and out.arc_set is not before
    removed = np.setdiff1d(und.arc_keys, out.arc_keys)
    assert len(removed) > 0 and not out.arc_set.contains(removed).any()
    assert out.arc_set.contains(out.arc_keys).all()
    assert before.contains(removed).all(), "the input graph's set is untouched"
