"""Every baseline must reproduce the reference core numbers; their
cost metrics must show the paper's qualitative relationships."""
import numpy as np
import pytest

from repro.baselines.and_local import and_decomposition
from repro.baselines.nd import nd_decomposition
from repro.baselines.pkt import pkt_truss
from repro.experiments import RS_RMAT, _best_config
from repro.graphs.gen import rmat
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import reference_nucleus

from .fixtures import SMALL_GRAPHS

GRAPHS = ["fig1", "k6", "bowtie", "two-tri", "er30", "comm"]
RS = [(2, 3), (3, 4)]


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS)
def test_nd_matches_reference(name, r, s):
    core, _ = nd_decomposition(SMALL_GRAPHS[name], r, s)
    assert core == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS)
def test_and_matches_reference(name, r, s):
    res = and_decomposition(SMALL_GRAPHS[name], r, s)
    assert res.core == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("r,s", RS)
def test_and_nn_matches_reference(name, r, s):
    res = and_decomposition(SMALL_GRAPHS[name], r, s, notification=True)
    assert res.core == reference_nucleus(SMALL_GRAPHS[name], r, s)


@pytest.mark.parametrize("r,s", RS_RMAT)
def test_arb_matches_and_on_medium_rmat(r, s):
    """ARB and AND, a local fixpoint with no peeling, agree on a graph
    too large for brute force, under the default, the best and the
    contraction-with-relabel configs."""
    edges = rmat(11, 15000, seed=5)
    want = and_decomposition(edges, r, s).core
    for cfg in (DecompConfig(), _best_config(r, s), DecompConfig(contraction=True, relabel=True)):
        assert nucleus_decomposition(edges, r, s, cfg).core_dict() == want, cfg


@pytest.mark.parametrize("name", GRAPHS)
def test_pkt_matches_reference(name):
    res = pkt_truss(SMALL_GRAPHS[name])
    got = {tuple(e): int(c) for e, c in zip(res.edges.tolist(), res.core.tolist())}
    assert got == reference_nucleus(SMALL_GRAPHS[name], 2, 3)


@pytest.mark.parametrize("name,r,s", [("er30", 2, 3), ("comm", 3, 4)])
def test_pnd_round_blowup(name, r, s):
    """PND peels one r-clique per round -> orders of magnitude more rounds
    than ARB's batch peeling (paper: 5608-84170x on SNAP graphs)."""
    _, pnd_counters = nd_decomposition(SMALL_GRAPHS[name], r, s)
    arb = nucleus_decomposition(SMALL_GRAPHS[name], r, s)
    assert pnd_counters.rounds > 3 * arb.rho


@pytest.mark.parametrize("name,r,s", [("er30", 2, 3), ("comm", 3, 4), ("comm", 2, 3)])
def test_and_discovers_more_scliques_than_arb(name, r, s):
    """Paper: AND computes 1.69-46.03x the s-cliques of ARB (median 15x)."""
    and_res = and_decomposition(SMALL_GRAPHS[name], r, s)
    arb = nucleus_decomposition(SMALL_GRAPHS[name], r, s)
    assert and_res.scliques_discovered > arb.counters.scliques_discovered


@pytest.mark.parametrize("name,r,s", [("er30", 2, 3), ("comm", 3, 4)])
def test_and_nn_reduces_discoveries_at_memory_cost(name, r, s):
    and_res = and_decomposition(SMALL_GRAPHS[name], r, s)
    nn_res = and_decomposition(SMALL_GRAPHS[name], r, s, notification=True)
    assert nn_res.scliques_discovered <= and_res.scliques_discovered
    assert nn_res.incidence_bytes > 0 and and_res.incidence_bytes == 0


def test_nd_round_count_is_peel_count():
    core, counters = nd_decomposition(SMALL_GRAPHS["fig1"], 3, 4)
    assert counters.rounds == len(core) == 14


def test_pkt_on_triangle_free_graph():
    res = pkt_truss(SMALL_GRAPHS["path6"])
    assert (res.core == 0).all()
