"""CSR construction and orientation invariants."""
import numpy as np
import pytest

from repro.graphs.csr import CSR, _check_edges, build_csr, orient_csr
from repro.graphs.orient import degree_order
from repro.tables.open_addr import KeySet

from .fixtures import SMALL_GRAPHS


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_symmetry(name):
    und = build_csr(SMALL_GRAPHS[name])
    for v in range(und.n):
        for w in und.neighbors(v):
            assert v in und.neighbors(int(w))


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_sorted_neighbors(name):
    und = build_csr(SMALL_GRAPHS[name])
    for v in range(und.n):
        nb = und.neighbors(v)
        assert (np.diff(nb) > 0).all(), "sorted, no duplicates"


def test_m_counts_arcs():
    und = build_csr(SMALL_GRAPHS["k4"])
    assert und.m == 12  # 6 edges * 2 directions


def test_self_loops_and_dups_dropped():
    e = np.array([(0, 1), (1, 0), (0, 0), (0, 1), (1, 2)])
    und = build_csr(e)
    assert und.m == 4
    assert und.degree(0) == 1 and und.degree(1) == 2


def test_isolated_vertices_via_n():
    und = build_csr(np.array([(0, 1)]), n=5)
    assert und.n == 5 and und.degree(4) == 0


def test_empty_graph():
    und = build_csr(np.empty((0, 2), dtype=np.int64), n=3)
    assert und.n == 3 and und.m == 0


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_orient_halves_arcs(name):
    und = build_csr(SMALL_GRAPHS[name])
    dg = orient_csr(und, degree_order(und))
    assert dg.m == und.m // 2


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_orient_is_dag_by_rank(name):
    und = build_csr(SMALL_GRAPHS[name])
    rank = degree_order(und)
    dg = orient_csr(und, rank)
    for v in range(dg.n):
        for w in dg.neighbors(v):
            assert rank[v] < rank[int(w)]


@pytest.mark.parametrize(
    "edges,n,match",
    [
        (np.array([[0, 1], [1, 2.5]]), None, "integer dtype"),
        (np.array([[0, 1, 2], [1, 2, 3]]), None, r"shape \(m, 2\)"),
        (np.array([[0, 1], [-1, 2]]), None, "non-negative"),
        (np.array([[0, 1], [1, 4]]), 4, "exceed the largest vertex id 4"),
    ],
    ids=["float", "three-columns", "negative", "n-too-small"],
)
def test_malformed_edges_rejected(edges, n, match):
    with pytest.raises(ValueError, match=match):
        build_csr(edges, n)


def test_from_arcs_roundtrip_trailing_isolated():
    und = build_csr(SMALL_GRAPHS["bowtie"], n=9)  # vertices 5..8 isolated
    back = CSR.from_arcs(und.n, und.arc_src, und.nbrs)
    assert back.n == 9 and back.degree(8) == 0
    assert np.array_equal(back.offsets, und.offsets)
    assert np.array_equal(back.nbrs, und.nbrs)


def test_gather_repeated_and_zero_degree():
    und = build_csr(SMALL_GRAPHS["bowtie"], n=7)  # 5, 6 isolated
    v = np.array([2, 5, 0, 2, 6, 4])
    i, w = und.gather(v)
    assert np.array_equal(i, np.repeat(np.arange(len(v)), [und.degree(x) for x in v]))
    assert np.array_equal(w, np.concatenate([und.neighbors(x) for x in v]))


def _arcs_by_lower_ends(csr, v):
    """``CSR.arcs`` written from the list starts ``offsets[v]``."""
    lo = csr.offsets[v]
    deg = csr.offsets[v + 1] - lo
    i = np.repeat(np.arange(len(v)), deg)
    return i, np.arange(len(i)) + np.repeat(lo - (np.cumsum(deg) - deg), deg)


def test_arcs_match_lower_end_formula():
    """``arcs`` reads list ends and subtracts the arcs before each list;
    it equals the formula from list starts on random batches, with
    empty, zero-degree, repeated and last vertices, dtypes included."""
    from repro.graphs.gen import rmat

    und = build_csr(rmat(7, 400, seed=4), n=140)  # 12 isolated vertices at the end
    g = np.random.default_rng(6)
    batches = [np.empty(0, dtype=np.int64), np.array([und.n - 1]), np.array([und.n - 1, 0, und.n - 1])]
    batches += [g.integers(0, und.n, size) for size in (1, 5, 15, 300) for _ in range(5)]
    for csr in (und, orient_csr(und, degree_order(und))):
        zero = np.flatnonzero(csr.degrees() == 0)
        last = np.flatnonzero(csr.degrees())[-1:]  # its list ends at the last arc
        for v in batches + [np.concatenate([zero[:3], v, last]) for v in batches]:
            got, want = csr.arcs(v), _arcs_by_lower_ends(csr, v)
            assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want)), v


@pytest.mark.parametrize(
    "keys",
    [
        np.empty(0, dtype=np.int64),
        np.array([0]),
        np.array([0, 99]),  # keys 0 and n^2 - 1 for n = 10
        np.arange(0, 2**40, 2**30),  # equal low bits
        np.arange(5000) * 7919,
        np.unique(np.random.default_rng(1).integers(0, 2**40, 5000)),  # collisions
        np.array([2**62, 2**63 - 1, 1]),
    ],
    ids=["empty", "zero", "both-ends", "strided", "dense", "random", "huge"],
)
def test_key_set_matches_isin(keys):
    s = KeySet(keys)
    assert s.cap >= 4 * len(keys), "load <= 1/4"
    g = np.random.default_rng(0)
    q = np.concatenate([keys, keys ^ 1, g.integers(0, 2**62, 1000), [0, 2**63 - 1]])
    assert np.array_equal(s.contains(q), np.isin(q, keys))
    assert s.contains(q[::3]).shape == q[::3].shape  # non-contiguous queries


def test_unsigned_id_at_2_pow_63_rejected():
    """An unsigned id the int64 cast would wrap negative is named before
    the cast, not left to fail inside a later bincount."""
    edges = np.array([[0, 1], [0, 2**63]], dtype=np.uint64)
    with pytest.raises(ValueError, match=r"below 2\^63, got 9223372036854775808$"):
        build_csr(edges)


@pytest.mark.parametrize(
    "edges,n", [([[0, 2**40]], None), ([[0, 1]], 3_037_000_500)], ids=["id-2^40", "n-given"]
)
def test_n_above_int64_arc_keys_rejected(monkeypatch, edges, n):
    """Above n = 3,037,000,499 the arc keys u * n + v overflow int64: such
    an n, taken from the largest id or given, is named before any
    n-sized array is made (an id of 2^40 used to ask for 8 TiB)."""

    def refuse(*args):
        raise AssertionError("an n-sized CSR was built")

    monkeypatch.setattr(CSR, "from_keys", refuse)
    monkeypatch.setattr(CSR, "from_arcs", refuse)
    with pytest.raises(ValueError, match=r"exceeds 3037000499, above which arc keys"):
        build_csr(np.array(edges), n)


@pytest.mark.parametrize("dtype", [np.uint64, np.int64])
def test_largest_valid_id_accepted(dtype):
    """2^63 - 1 passes validation in either dtype. The graph is not built:
    its n would be 2^63."""
    _check_edges(np.array([[0, 2**63 - 1]], dtype=dtype), None)


def test_unsigned_ids_build_the_same_csr():
    edges = SMALL_GRAPHS["fig1"]
    got, want = build_csr(edges.astype(np.uint64)), build_csr(edges)
    assert got.n == want.n and np.array_equal(got.nbrs, want.nbrs)


ORIENTATIONS = {"degree": degree_order, "id": lambda und: np.arange(und.n)}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_edge_keys_find_every_edge_once(name, orientation):
    """Every arc of the undirected graph, asked for in either direction,
    finds the one DG arc of its edge; a non-edge finds nothing. DG keeps
    its rank unless it is the id."""
    und = build_csr(SMALL_GRAPHS[name])
    rank = ORIENTATIONS[orientation](und)
    dg = orient_csr(und, rank)
    assert (dg.rank is None) == np.array_equal(rank, np.arange(und.n))
    pos = dg.arc_set.find(dg.edge_keys(und.arc_src, und.nbrs))
    want = np.sort(np.stack([und.arc_src, und.nbrs], axis=1), axis=1)
    got = np.sort(np.stack([dg.arc_src[pos], dg.nbrs[pos]], axis=1), axis=1)
    assert (pos >= 0).all() and np.array_equal(got, want)
    assert np.array_equal(np.bincount(pos, minlength=dg.m), np.full(dg.m, 2))
    u, v = np.triu_indices(und.n, k=1)
    absent = ~np.isin(u * und.n + v, und.arc_keys)
    assert (dg.arc_set.find(dg.edge_keys(u[absent], v[absent])) == -1).all()


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_edge_order_is_lexicographic(name, orientation):
    """``edge_order`` lists DG's arcs by their (min, max) pairs in
    lexicographic order: the edges as the id-ordered CSR's u < v arcs."""
    und = build_csr(SMALL_GRAPHS[name])
    dg = orient_csr(und, ORIENTATIONS[orientation](und))
    arcs = dg.edge_order
    got = np.sort(np.stack([dg.arc_src[arcs], dg.nbrs[arcs]], axis=1), axis=1)
    lower = und.arc_src < und.nbrs
    assert np.array_equal(got, np.stack([und.arc_src[lower], und.nbrs[lower]], axis=1))
