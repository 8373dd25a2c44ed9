"""Generators: determinism, canonical form, structural sanity."""
import numpy as np
import pytest

from repro.graphs import gen
from repro.graphs.gen import (
    RMAT_CHUNK,
    SURROGATES,
    _dedup,
    community_graph,
    erdos_renyi,
    rmat,
    surrogate,
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rmat_deterministic(seed):
    a = rmat(8, 500, seed=seed)
    b = rmat(8, 500, seed=seed)
    assert np.array_equal(a, b)


def test_rmat_seeds_differ():
    assert not np.array_equal(rmat(8, 500, seed=0), rmat(8, 500, seed=1))


@pytest.mark.parametrize(
    "edges_fn",
    [
        lambda: rmat(7, 300, seed=3),
        lambda: erdos_renyi(50, 0.2, seed=3),
        lambda: community_graph(5, 4, 8, seed=3),
    ],
)
def test_canonical_no_self_loops_no_dups(edges_fn):
    e = edges_fn()
    assert (e[:, 0] < e[:, 1]).all(), "canonical u < v"
    keys = e[:, 0] * (e.max() + 1) + e[:, 1]
    assert len(np.unique(keys)) == len(keys), "no duplicate edges"


def test_rmat_vertex_range():
    e = rmat(6, 200, seed=4)
    assert e.min() >= 0 and e.max() < 64


def test_rmat_skew():
    """rMAT with a=0.5 >> d should concentrate edges on low vertex ids."""
    e = rmat(10, 5000, seed=5)
    deg = np.bincount(e.ravel(), minlength=1024)
    low, high = deg[:512].sum(), deg[512:].sum()
    assert low > 1.5 * high


def test_erdos_renyi_edge_count_close():
    n, p = 80, 0.2
    e = erdos_renyi(n, p, seed=6)
    expected = p * n * (n - 1) / 2
    assert 0.7 * expected <= len(e) <= 1.3 * expected


def test_community_graph_clustering():
    """Intra-community blocks should be near-cliques: many triangles."""
    from repro.cliques.listing import count_cliques
    from repro.graphs.csr import build_csr, orient_csr
    from repro.graphs.orient import degree_order

    e = community_graph(4, 6, 8, p_intra=0.95, inter_per_vertex=0.5, seed=7)
    und = build_csr(e)
    dg = orient_csr(und, degree_order(und))
    assert count_cliques(dg, 4) > 20


@pytest.mark.parametrize("name", sorted(SURROGATES))
def test_surrogates_build(name):
    e = surrogate(name)
    assert len(e) > 100
    assert (e[:, 0] < e[:, 1]).all()


@pytest.mark.parametrize("name", sorted(SURROGATES))
def test_surrogates_deterministic(name):
    assert np.array_equal(surrogate(name), surrogate(name))


def one_shot_rmat(log2_n, n_edges, seed, a=0.5, b=0.1, c=0.1, d=0.3):
    """rmat's quadrant choices drawn as one (n_edges, log2_n) matrix, as
    rmat drew them before it drew row chunks."""
    g = np.random.default_rng(seed)
    probs = np.array([a, b, c, d])
    probs /= probs.sum()
    quad = g.choice(4, size=(n_edges, log2_n), p=probs)
    weights = (1 << np.arange(log2_n - 1, -1, -1)).astype(np.int64)
    return _dedup(np.stack([((quad >> 1) & 1) @ weights, (quad & 1) @ weights], axis=1))


@pytest.mark.parametrize(
    "log2_n,n_edges,seed",
    [(9, 10000, 15), (12, 20000, 14), (10, 3 * RMAT_CHUNK + 123, 5)],
    ids=["orkut-34", "skitter-23", "four-chunks"],
)
def test_rmat_chunks_match_one_shot_draw(log2_n, n_edges, seed):
    """Drawing the quadrant matrix RMAT_CHUNK rows at a time gives the
    edges of one whole-matrix draw, bit for bit; the last case takes four
    chunks, the last one partial."""
    got = rmat(log2_n, n_edges, seed=seed)
    want = one_shot_rmat(log2_n, n_edges, seed)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_rmat_small_chunks_match_one_shot_draw(monkeypatch):
    monkeypatch.setattr(gen, "RMAT_CHUNK", 7)
    assert np.array_equal(rmat(8, 500, seed=2), one_shot_rmat(8, 500, 2))
    assert len(rmat(8, 0, seed=2)) == 0
