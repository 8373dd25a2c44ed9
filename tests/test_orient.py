"""Orientation orderings: validity and out-degree bounds."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.gen import rmat
from repro.graphs.orient import (
    degeneracy_order,
    degree_order,
    make_rank,
    relabel,
)
from repro.nucleus.decomp import nucleus_decomposition
from repro.nucleus.reference import reference_nucleus

from .fixtures import BENCH_GRAPHS, MEDIUM_GRAPHS, SMALL_GRAPHS

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
    new, perm = relabel(und, rank)
    assert np.array_equal(new.arc_keys, build_csr(rank[edges], und.n).arc_keys)
    back = build_csr(perm[np.stack([new.arc_src, new.nbrs], axis=1)], und.n)
    assert np.array_equal(back.arc_keys, und.arc_keys)


def test_relabel_makes_identity_rank():
    edges = SMALL_GRAPHS["comm"]
    und = build_csr(edges)
    rank = make_rank(und)
    und2, _ = relabel(und, rank)
    dg2 = orient_csr(und2, np.arange(und.n))
    # after relabeling, rank order == id order: every arc goes id-up
    for v in range(dg2.n):
        assert (dg2.neighbors(v) > v).all()


def _masked_peel(csr):
    """The frontier peel kept with a live mask and a unique with counts
    per round: the same rounds, written plainly."""
    n = csr.n
    deg = csr.degrees()
    alive = np.ones(n, dtype=bool)
    rank = np.empty(n, dtype=np.int64)
    live = np.arange(n)
    peeled = live[:0]
    pos = k = 0
    while pos < n:
        if not len(peeled):
            live = live[alive[live]]
            live_deg = deg[live]
            k = int(live_deg.min())
            peeled = live[live_deg == k]
        rank[peeled] = pos + np.arange(len(peeled))
        pos += len(peeled)
        alive[peeled] = False
        _, w = csr.gather(peeled)
        nb, lost = np.unique(w[alive[w]], return_counts=True)
        deg[nb] -= lost
        peeled = nb[deg[nb] <= k]
    return rank, k


PEEL_GRAPHS = {
    **{name: (lambda g=g: (g(), None)) for name, g in BENCH_GRAPHS.items()},
    "rmat14-300k": lambda: (rmat(14, 300_000, seed=3), None),
    "empty": lambda: (np.empty((0, 2), dtype=np.int64), None),
    "isolated-only": lambda: (np.empty((0, 2), dtype=np.int64), 5),
    "n-above-max-id": lambda: (SMALL_GRAPHS["fig1"], 12),
    "self-loops-only": lambda: (np.array([[0, 0], [1, 1], [3, 3]]), None),
    "isolated-and-loops": lambda: (np.array([[0, 1], [1, 2], [2, 0], [4, 4], [2, 6]]), 9),
}


@pytest.mark.parametrize("name", list(PEEL_GRAPHS))
def test_degeneracy_order_matches_masked_peel(name):
    """Sentinel degrees, the scatter-subtract and the frontier-only dedup
    rank every vertex as the live-mask peel does. The degree-0 cases peel
    a frontier whose gather is empty."""
    edges, n = PEEL_GRAPHS[name]()
    csr = build_csr(edges, n)
    rank, d = degeneracy_order(csr)
    want_rank, want_d = _masked_peel(csr)
    assert np.array_equal(rank, want_rank) and rank.dtype == want_rank.dtype
    assert d == want_d


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS) + list(BENCH_GRAPHS))
def test_cores_match_networkx(name):
    """An oracle that shares no code with this package: networkx's core
    numbers are the (1,2) cores, and their maximum is the degeneracy."""
    nx = pytest.importorskip("networkx")
    edges = SMALL_GRAPHS[name] if name in SMALL_GRAPHS else BENCH_GRAPHS[name]()
    g = nx.Graph()
    g.add_nodes_from(range(int(edges.max()) + 1))
    g.add_edges_from(edges.tolist())
    want = nx.core_number(g)
    assert nucleus_decomposition(edges, 1, 2).core_dict() == {(v,): c for v, c in want.items()}
    assert degeneracy_order(build_csr(edges))[1] == max(want.values())
