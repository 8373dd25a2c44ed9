"""Orientation orderings: validity and out-degree bounds."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.orient import (
    degeneracy_order,
    degree_order,
    make_rank,
    relabel,
)
from repro.nucleus.reference import reference_nucleus

from .fixtures import MEDIUM_GRAPHS, SMALL_GRAPHS

ALL = {**SMALL_GRAPHS, **MEDIUM_GRAPHS}


@pytest.mark.parametrize("name", sorted(ALL))
@pytest.mark.parametrize("kind", ["degree", "degeneracy"])
def test_rank_is_permutation(name, kind):
    und = build_csr(ALL[name])
    rank = {"degree": degree_order, "degeneracy": make_rank}[kind](und)
    assert sorted(rank.tolist()) == list(range(und.n))


@pytest.mark.parametrize("name", sorted(ALL))
def test_degeneracy_out_degree_bound(name):
    """Degeneracy-ordered out-degrees are bounded by the degeneracy d."""
    und = build_csr(ALL[name])
    rank, d = degeneracy_order(und)
    dg = orient_csr(und, rank)
    assert int(dg.degrees().max(initial=0)) <= d


@pytest.mark.parametrize("name", sorted(ALL))
def test_degeneracy_is_max_k_core(name):
    """The degeneracy is the largest (1,2) core number."""
    und = build_csr(ALL[name])
    assert degeneracy_order(und)[1] == max(reference_nucleus(ALL[name], 1, 2).values())


def test_degeneracy_of_complete_graph():
    und = build_csr(SMALL_GRAPHS["k6"])
    assert degeneracy_order(und)[1] == 5


def test_degeneracy_of_path():
    und = build_csr(SMALL_GRAPHS["path6"])
    assert degeneracy_order(und)[1] == 1


def test_relabel_roundtrip():
    edges = SMALL_GRAPHS["fig1"]
    und = build_csr(edges)
    rank = make_rank(und)
    new_edges, perm = relabel(edges, rank)
    back = perm[new_edges]
    assert np.array_equal(
        np.sort(np.sort(back, axis=1), axis=0), np.sort(np.sort(edges, axis=1), axis=0)
    )


def test_relabel_makes_identity_rank():
    edges = SMALL_GRAPHS["comm"]
    und = build_csr(edges)
    rank = make_rank(und)
    new_edges, _ = relabel(edges, rank)
    und2 = build_csr(new_edges, und.n)
    dg2 = orient_csr(und2, np.arange(und.n))
    # after relabeling, rank order == id order: every arc goes id-up
    for v in range(dg2.n):
        assert (dg2.neighbors(v) > v).all()
