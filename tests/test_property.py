"""Property-based testing: random graphs vs the brute-force oracle."""
from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cliques.listing import extend_cliques, s_counts_per_r_clique
from repro.cliques.spark_count import spark_s_counts
from repro.experiments import _best_config
from repro.graphs.csr import build_csr, orient_csr
from repro.graphs.orient import degeneracy_order, degree_order, make_rank, relabel
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.nucleus.reference import brute_force_cliques, reference_nucleus
from repro.tables.clique_table import TableConfig, _strictly_increasing
from repro.tables.open_addr import EMPTY_BIT, KeySet, insert, region_find


@st.composite
def random_edges(draw, max_n=14):
    n = draw(st.integers(4, max_n))
    density = draw(st.floats(0.2, 0.7))
    seed = draw(st.integers(0, 10_000))
    g = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    mask = g.random(len(iu)) < density
    if not mask.any():
        mask[0] = True
    return np.stack([iu[mask], iv[mask]], axis=1)


@st.composite
def arc_set_graphs(draw, max_n=12):
    """(n, edges): an empty graph, one edge, the complete graph or a random
    graph on n vertices."""
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(["empty", "one-edge", "complete", "random"]))
    if kind == "empty":
        return n, np.empty((0, 2), dtype=np.int64)
    if kind == "one-edge":
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        return n, np.array([[u, v]])
    iu, iv = np.triu_indices(n, k=1)
    if kind == "random":
        keep = np.array(draw(st.lists(st.booleans(), min_size=len(iu), max_size=len(iu))))
        iu, iv = iu[keep], iv[keep]
    return n, np.stack([iu, iv], axis=1)


@given(arc_set_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_arc_set_matches_isin_random(graph, data):
    n, edges = graph
    und = build_csr(edges, n)
    dg = orient_csr(und, np.arange(n))  # a one-edge graph leaves dg one arc
    every = np.arange(n * n)  # keys 0 and n^2 - 1 included
    picks = np.array(data.draw(st.lists(st.integers(0, n * n - 1), max_size=40)), dtype=np.int64)
    for csr in (und, dg):
        misses = np.setdiff1d(every, csr.arc_keys)
        for q in (every, misses, picks):
            assert np.array_equal(csr.arc_set.contains(q), np.isin(q, csr.arc_keys))


@st.composite
def keyed_regions(draw, max_regions=6):
    """(caps, region, keys, others): regions with non-power-of-two
    capacities, the region of every key, the distinct keys below 2^63
    and distinct non-member keys."""
    counts = draw(st.lists(st.integers(0, 30), min_size=1, max_size=max_regions))
    caps = [
        draw(st.integers(c + 1, 4 * c + 8).filter(lambda x: x & (x - 1)))
        for c in counts
    ]
    every = draw(
        st.lists(st.integers(0, 2**63 - 1), min_size=sum(counts) + 5,
                 max_size=sum(counts) + 20, unique=True)
    )
    keys = np.array(every[: sum(counts)], dtype=np.uint64)
    others = np.array(every[sum(counts) :], dtype=np.uint64)
    return np.array(caps), np.repeat(np.arange(len(counts)), counts), keys, others


@given(keyed_regions())
@settings(max_examples=60, deadline=None)
def test_open_addressing_finds_own_cell_random(regions):
    caps, region, keys, others = regions
    starts = np.cumsum(caps + 1) - (caps + 1)
    cells = np.full(int((caps + 1).sum()), EMPTY_BIT, dtype=np.uint64)
    pos, _ = insert(cells, starts[region], caps[region], keys)
    assert np.array_equal(cells[pos], keys)
    assert np.array_equal(region_find(cells, starts[region], caps[region], keys), pos)
    qreg = np.repeat(np.arange(len(caps)), len(others))
    missing = region_find(cells, starts[qreg], caps[qreg], np.tile(others, len(caps)))
    assert (missing == -1).all()
    s = KeySet(keys.astype(np.int64))
    q = np.concatenate([keys, others]).astype(np.int64)
    assert np.array_equal(s.contains(q), np.isin(q, keys.astype(np.int64)))


@given(random_edges(), st.sampled_from([(2, 3), (3, 4), (2, 4), (1, 2)]))
@settings(max_examples=40, deadline=None)
def test_decomp_matches_reference_random(edges, rs):
    r, s = rs
    res = nucleus_decomposition(edges, r, s)
    assert res.core_dict() == reference_nucleus(edges, r, s)


@given(random_edges(max_n=12), st.sampled_from([1, 2, 3]))
@settings(max_examples=20, deadline=None)
def test_table_levels_equivalent_random(edges, levels):
    cfg = DecompConfig(
        table=TableConfig(levels=levels, first_level="hash" if levels > 2 else "array")
    )
    res = nucleus_decomposition(edges, 3, 4, cfg)
    assert res.core_dict() == reference_nucleus(edges, 3, 4)


@given(
    st.integers(1, 3).flatmap(
        lambda k: st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k), max_size=12)
    )
)
@settings(max_examples=200, deadline=None)
def test_row_order_check_matches_tuple_order_random(rows):
    """T's column-by-column order check agrees with comparing the rows as
    tuples; ids below 4 make long equal prefixes and equal rows common."""
    mat = np.array(rows, dtype=np.int64).reshape(len(rows), -1 if rows else 1)
    assert _strictly_increasing(mat) == all(tuple(a) < tuple(b) for a, b in zip(rows, rows[1:]))


@given(random_edges(max_n=12), st.sampled_from([(2, 3), (2, 4), (3, 4), (2, 5)]))
@settings(max_examples=20, deadline=None)
def test_dedup_updates_match_reference_random(edges, rs):
    r, s = rs
    res = nucleus_decomposition(edges, r, s, DecompConfig())
    assert res.core_dict() == reference_nucleus(edges, r, s)


@given(random_edges(max_n=12), st.sampled_from([(2, 3), (2, 4), (3, 4)]), st.data())
@settings(max_examples=30, deadline=None)
def test_renamed_vertices_give_same_cores_random(edges, rs, data):
    """Permuting or shifting the vertex IDs permutes or shifts the cores."""
    r, s = rs
    n = int(edges.max()) + 1
    if data.draw(st.booleans(), label="shift"):
        ids = np.arange(n) + data.draw(st.integers(1, 1000), label="offset")
    else:
        ids = np.array(data.draw(st.permutations(range(n)), label="perm"))
    back = dict(zip(ids.tolist(), range(n)))
    for cfg in (DecompConfig(), _best_config(r, s)):
        moved = nucleus_decomposition(ids[edges], r, s, cfg).core_dict()
        got = {tuple(sorted(back[v] for v in R)): c for R, c in moved.items()}
        assert got == nucleus_decomposition(edges, r, s, cfg).core_dict()


@given(
    random_edges(max_n=12),
    st.sampled_from([(1, 2), (2, 3), (3, 4), (2, 4)]),
    st.integers(1, 8),
    st.sampled_from([make_rank, degree_order]),
)
@settings(max_examples=30, deadline=None)
def test_spark_counts_match_local_random(spark, edges, rs, n_slices, order):
    """Spark counting equals local counting bit for bit, dtype included,
    also on a DG oriented by degree, whose out-lists are not in id order."""
    r, s = rs
    und = build_csr(edges)
    dg = orient_csr(und, order(und))
    vmat, cnts = spark_s_counts(spark, dg, r, s, n_slices=n_slices)
    local_vmat, local_cnts = s_counts_per_r_clique(dg, r, s)
    assert np.array_equal(vmat, local_vmat) and np.array_equal(cnts, local_cnts)
    assert vmat.dtype == local_vmat.dtype and cnts.dtype == local_cnts.dtype == np.int64


@given(random_edges())
@settings(max_examples=40, deadline=None)
def test_degeneracy_is_max_k_core_random(edges):
    assert degeneracy_order(build_csr(edges))[1] == max(reference_nucleus(edges, 1, 2).values())


@st.composite
def messy_edges(draw, max_id=15):
    """(edges, n): a list of up to 40 edges among ids up to ``max_id``,
    with duplicates, self loops and both orientations of an edge drawn
    freely, and n up to 3 above the largest id (isolated vertices)."""
    ids = st.integers(0, draw(st.integers(0, max_id)))
    pairs = draw(st.lists(st.tuples(ids, ids), max_size=40))
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    top = int(edges.max()) + 1 if len(edges) else 0
    return edges, top + draw(st.integers(0, 3))


def _round_synchronous_degeneracy(edges: np.ndarray, n: int) -> tuple[list[int], int]:
    """Plain reference peel: k = max(k, min live degree), then every live
    vertex of degree <= k is ranked in id order and removed."""
    adj = [set() for _ in range(n)]
    for u, v in edges.tolist():
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    deg = [len(a) for a in adj]
    live, rank, pos, k = set(range(n)), [0] * n, 0, 0
    while live:
        k = max(k, min(deg[v] for v in live))
        peel = sorted(v for v in live if deg[v] <= k)
        live -= set(peel)
        for v in peel:
            rank[v], pos = pos, pos + 1
            for w in adj[v] & live:
                deg[w] -= 1
    return rank, k


@given(messy_edges())
@example((np.empty((0, 2), dtype=np.int64), 0))
@example((np.empty((0, 2), dtype=np.int64), 3))
@example((np.array([[0, 1]]), 2))
@example((np.array([[3, 1]]), 6))
@settings(max_examples=150, deadline=None)
def test_degeneracy_order_matches_round_synchronous_reference(graph):
    edges, n = graph
    rank, d = degeneracy_order(build_csr(edges, n))
    want_rank, want_d = _round_synchronous_degeneracy(edges, n)
    assert rank.tolist() == want_rank and d == want_d


def _unique_lexsort_csr(edges: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The CSR construction of one ``np.unique`` of the normalized edges
    followed by a ``lexsort`` of both arc directions."""
    u = np.minimum(edges[:, 0], edges[:, 1])
    v = np.maximum(edges[:, 0], edges[:, 1])
    keep = u != v
    uniq = np.unique(u[keep] * n + v[keep])
    u, v = uniq // n, uniq % n
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    order = np.lexsort((dst, src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=offsets[1:])
    return offsets, dst[order]


@given(messy_edges())
@example((np.empty((0, 2), dtype=np.int64), 0))
@example((np.array([[2, 2], [1, 2], [2, 1], [1, 2]]), 4))
@settings(max_examples=150, deadline=None)
def test_build_csr_matches_unique_lexsort(graph):
    edges, n = graph
    offsets, nbrs = _unique_lexsort_csr(edges, n)
    for und in (build_csr(edges, n), build_csr(edges[::-1, ::-1], n)):
        assert und.offsets.dtype == und.nbrs.dtype == np.int64
        assert np.array_equal(und.offsets, offsets) and np.array_equal(und.nbrs, nbrs)
        assert np.array_equal(und.arc_keys, und.arc_src * n + und.nbrs)
    if len(edges) and n == edges.max() + 1:
        assert np.array_equal(build_csr(edges).nbrs, nbrs)


@given(messy_edges(), st.sampled_from([degree_order, make_rank]))
@settings(max_examples=60, deadline=None)
def test_relabel_csr_matches_rebuilt_csr(graph, order):
    """Relabeling a CSR by its renamed arc keys gives the CSR built from
    the relabeled edges, and a perm that inverts rank."""
    edges, n = graph
    und = build_csr(edges, n)
    rank = order(und)
    got, perm = relabel(und, rank)
    want = build_csr(rank[edges], n)
    assert np.array_equal(rank[perm], np.arange(n))
    assert np.array_equal(got.offsets, want.offsets) and np.array_equal(got.nbrs, want.nbrs)
    assert np.array_equal(got.arc_src, want.arc_src) and np.array_equal(got.arc_keys, want.arc_keys)


@st.composite
def ranked_graphs(draw, max_n=12):
    """(und, rank): a random graph and an orientation rank, the degree
    order or a random one, under which id order and rank order differ
    (under relabeling they coincide, so relabeled runs never test this)."""
    und = build_csr(draw(random_edges(max_n)))
    if draw(st.booleans()):
        return und, degree_order(und)
    return und, np.array(draw(st.permutations(range(und.n))), dtype=np.int64)


@given(ranked_graphs())
@settings(max_examples=80, deadline=None)
def test_orient_csr_rank_order_random(graph):
    """Each out-list is in rank order, and the oriented arcs are the
    undirected arcs that rise in rank, no more and no fewer."""
    und, rank = graph
    dg = orient_csr(und, rank)
    for v in range(dg.n):
        assert (np.diff(rank[dg.neighbors(v)]) > 0).all()
    assert np.array_equal(dg.arc_src, np.sort(dg.arc_src))
    want = und.arc_keys[rank[und.arc_src] < rank[und.nbrs]]
    assert np.array_equal(np.sort(dg.arc_keys), want)
    every = np.arange(und.n * und.n)
    assert np.array_equal(dg.arc_set.contains(every), np.isin(every, want))


@given(ranked_graphs(), st.sampled_from([(1, 2), (1, 3), (2, 4), (3, 4), (2, 5)]))
@settings(max_examples=60, deadline=None)
def test_counts_match_brute_force_any_rank_random(graph, rs):
    """Counting lists every s-clique once under any orientation rank."""
    und, rank = graph
    r, s = rs
    vmat, cnts = s_counts_per_r_clique(orient_csr(und, rank), r, s)
    expected = {R: 0 for R in brute_force_cliques(und, r)}
    for S in brute_force_cliques(und, s):
        for R in combinations(S, r):
            expected[R] += 1
    assert [tuple(R) for R in vmat.tolist()] == list(expected)
    assert cnts.tolist() == list(expected.values())


@given(ranked_graphs(), st.sampled_from([(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]), st.data())
@settings(max_examples=60, deadline=None)
def test_extend_deep_matches_brute_force_random(graph, rs, data):
    """UPDATE with need >= 2 lists each s-clique once per r-clique of A
    inside it, led by that r-clique, whatever the orientation rank."""
    und, rank = graph
    r, s = rs
    r_cliques = brute_force_cliques(und, r)
    picks = data.draw(st.lists(st.booleans(), min_size=len(r_cliques), max_size=len(r_cliques)))
    A = [R for R, pick in zip(r_cliques, picks) if pick]
    out = extend_cliques(und, orient_csr(und, rank), np.array(A, dtype=np.int64).reshape(-1, r), s - r)
    got = Counter((tuple(row[:r]), tuple(sorted(row))) for row in out.tolist())
    A = set(A)
    expected = {(R, S) for S in brute_force_cliques(und, s) for R in combinations(S, r) if R in A}
    assert set(got) == expected
    assert set(got.values()) <= {1}
