"""The frontier clique kernel (REC-LIST-CLIQUES and batched UPDATE)
vs brute-force enumeration."""
from collections import Counter
from itertools import combinations
from math import comb

import numpy as np
import pytest

from repro.cliques import listing
from repro.cliques.listing import (
    Peeled,
    count_cliques,
    count_partials,
    enumerate_cliques,
    extend_cliques,
    face_index,
    merge_counts,
    peel_faces,
    s_counts_per_r_clique,
    sum_by_row,
)
from repro.experiments import _best_config
from repro.graphs.csr import CSR, build_csr, orient_csr
from repro.graphs.gen import community_graph, rmat
from repro.graphs.orient import degree_order, make_rank
from repro.instrument import Counters
from repro.nucleus.decomp import nucleus_decomposition
from repro.nucleus.reference import brute_force_cliques
from repro.tables.clique_table import make_table
from repro.tables.packing import row_ranks

from .fixtures import SMALL_GRAPHS, update_unpeeled


ORDERS = {"degree": degree_order, "degeneracy": make_rank}


def setup(name, orientation="degree"):
    und = build_csr(SMALL_GRAPHS[name])
    dg = orient_csr(und, ORDERS[orientation](und))
    return und, dg


def as_dict(vmat, cnts):
    return {tuple(row): c for row, c in zip(vmat.tolist(), cnts.tolist())}


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("c", [2, 3, 4, 5])
def test_count_matches_brute_force(name, c):
    und, dg = setup(name)
    assert count_cliques(dg, c) == len(brute_force_cliques(und, c))


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm"])
@pytest.mark.parametrize("c", [3, 4])
@pytest.mark.parametrize("orientation", sorted(ORDERS))
def test_count_orientation_invariant(name, c, orientation):
    und, dg = setup(name, orientation)
    assert count_cliques(dg, c) == len(brute_force_cliques(und, c))


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
def test_enumerate_matches_brute_force(name):
    und, dg = setup(name)
    got = {tuple(r_) for r_ in enumerate_cliques(dg, 3).tolist()}
    assert got == set(brute_force_cliques(und, 3))


def test_k_complete_counts():
    _, dg = setup("k7")
    for c in range(1, 8):
        assert count_cliques(dg, c) == comb(7, c)


def test_fig1_triangle_count():
    _, dg = setup("fig1")
    assert count_cliques(dg, 3) == 14  # stated in the paper


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm", "two-tri"])
@pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5)])
def test_s_counts_per_r_clique(name, r, s):
    und, dg = setup(name)
    vmat, cnts = s_counts_per_r_clique(dg, r, s)
    assert vmat.shape == (len(cnts), r)
    assert cnts.dtype == np.int64
    assert (np.diff(vmat, axis=1) > 0).all(), "vertex rows sorted"
    assert [tuple(v) for v in vmat.tolist()] == sorted({tuple(v) for v in vmat.tolist()})
    got = as_dict(vmat, cnts)
    s_cliques = brute_force_cliques(und, s)
    expected = {R: 0 for R in brute_force_cliques(und, r)}
    for S in s_cliques:
        for sub in combinations(S, r):
            expected[sub] += 1
    assert got == expected


def test_fig1_34_initial_counts():
    """Paper: cdg->0; abf,aef,bef->1; abe->3; the rest->2."""
    _, dg = setup("fig1")
    got = {k: int(v) for k, v in as_dict(*s_counts_per_r_clique(dg, 3, 4)).items()}
    assert got[(2, 3, 6)] == 0
    assert got[(0, 1, 5)] == got[(0, 4, 5)] == got[(1, 4, 5)] == 1
    assert got[(0, 1, 4)] == 3
    assert sorted(got.values()) == [0, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3]


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm"])
@pytest.mark.parametrize("r,s", [(2, 3), (2, 4), (3, 4), (3, 5)])
def test_extend_lists_scliques_containing_R(name, r, s):
    und, dg = setup(name)
    s_cliques = brute_force_cliques(und, s)
    for R in brute_force_cliques(und, r)[:20]:
        out = update_unpeeled(und, dg, np.array([R]), s - r)
        assert (out[:, :r] == R).all(), "rows led by their source r-clique"
        found = [tuple(sorted(row)) for row in out.tolist()]
        expected = {S for S in s_cliques if set(R) <= set(S)}
        assert set(found) == expected
        assert len(found) == len(set(found)), "each s-clique listed once"


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("r,s", [(2, 3), (2, 4), (3, 4), (2, 5), (3, 5)])
def test_batched_update_multiplicity(name, r, s):
    """One call over a set A lists each s-clique S once per r-clique of A
    inside S (the a of UPDATE's 1/a decrement), led by that r-clique."""
    und, dg = setup(name, "degeneracy")
    r_cliques = brute_force_cliques(und, r)
    s_cliques = brute_force_cliques(und, s)
    rng = np.random.default_rng(len(r_cliques) * 31 + s)
    for frac in (0.3, 1.0):
        A = {R for R, p in zip(r_cliques, rng.random(len(r_cliques)) < frac) if p}
        A_rows = np.array(sorted(A), dtype=np.int64).reshape(-1, r)
        out = update_unpeeled(und, dg, A_rows, s - r)
        got = Counter((tuple(row[:r]), tuple(sorted(row))) for row in out.tolist())
        expected = {(R, S) for S in s_cliques for R in combinations(S, r) if R in A}
        assert set(got) == expected
        assert set(got.values()) <= {1}, "once per (source row, s-clique)"


def random_rounds(rng, n_r, frac):
    """Peel rounds of n_r r-cliques: about ``frac`` of them peeled in
    rounds 0-2, a fifth of all live (-1), the rest peeled now, round 3."""
    rounds = np.where(rng.random(n_r) < frac, rng.integers(0, 3, n_r), 3)
    rounds[rng.random(n_r) < 0.2] = -1
    return rounds


def chosen_face(faces, R, rid):
    """The face UPDATE draws R's completions from (r >= 2): R less the
    vertex in column ``col``."""
    return tuple(v for j, v in enumerate(R) if j != faces.col[rid])


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("r,s", [(1, 3), (2, 3), (2, 4), (3, 4), (2, 5), (3, 5)])
def test_extend_drops_dead_vertices(name, r, s):
    """UPDATE returns the rows of the same call with nothing peeled (every
    round -1) less exactly those with an extra vertex w whose completed
    r-clique, F ∪ {w} for the chosen face F ({w} at r = 1), or at r = 2
    whose probed edge {head, w}, was peeled in an earlier round; each
    dropped row so holds an r-subset peeled earlier. With nothing peeled
    earlier it returns every row."""
    und, dg = setup(name, "degeneracy")
    vmat = s_counts_per_r_clique(dg, r, s)[0]
    rng = np.random.default_rng(len(vmat) * 31 + s)
    faces = peel_faces(und, dg, vmat)
    live = np.full(len(vmat), -1, dtype=np.int64)
    table = make_table(vmat, und.n, dg=dg)
    of = {R: i for i, R in enumerate(map(tuple, vmat.tolist()))}  # an r-clique's id is its row
    for frac in (0.0, 0.3, 0.7):
        rounds = random_rounds(rng, len(vmat), frac)
        A = (rounds == 3).nonzero()[0]
        full = extend_cliques(dg, vmat[A], s - r, Counters(), Peeled(live, A, faces, table))[0]
        counters = Counters()
        out = extend_cliques(dg, vmat[A], s - r, counters, Peeled(rounds, A, faces, table))[0]
        assert counters.scliques_discovered == len(out)
        assert Counter(map(tuple, out.tolist())) <= Counter(map(tuple, full.tolist()))
        earlier = {R for R, t in zip(of, rounds.tolist()) if 0 <= t < 3}
        kept = set(map(tuple, out.tolist()))
        for row in full.tolist():
            R, extra = tuple(row[:r]), row[r:]
            F = chosen_face(faces, R, of[R]) if r > 1 else ()
            tested = [F + (w,) for w in extra]
            if r == 2:
                tested += [(sum(R) - F[0], w) for w in extra]
            dead = any(tuple(sorted(sub)) in earlier for sub in tested)
            assert (tuple(row) not in kept) == dead
            if dead:
                assert any(sub in earlier for sub in combinations(sorted(row), r))
        if frac == 0.0:
            assert len(out) == len(full)


ORIENTATIONS = {**ORDERS, "id": lambda und: np.arange(und.n)}


def oriented(name, orientation):
    und = build_csr(SMALL_GRAPHS[name])
    return und, orient_csr(und, ORIENTATIONS[orientation](und))


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm", "rmat6", "two-tri", "bowtie"])
@pytest.mark.parametrize("s", [3, 4, 5])
@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_extend_drops_dead_probed_edges_at_r2(name, s, orientation):
    """At r = 2, where the faces give the edge id of every DG arc, UPDATE
    returns the rows of the same call with nothing peeled less exactly
    those with an extra vertex w for which the completed edge {F, w} or
    the probed edge {head, w} was peeled in an earlier round, F the row's
    face (its endpoint of lower degree) and head its other vertex."""
    und, dg = oriented(name, orientation)
    vmat = s_counts_per_r_clique(dg, 2, s)[0]
    rng = np.random.default_rng(len(vmat) * 31 + s)
    faces = peel_faces(und, dg, vmat)
    live = np.full(len(vmat), -1, dtype=np.int64)
    table = make_table(vmat, und.n, dg=dg)
    of = {R: i for i, R in enumerate(map(tuple, vmat.tolist()))}
    for frac in (0.0, 0.3, 0.7):
        rounds = random_rounds(rng, len(vmat), frac)
        A = (rounds == 3).nonzero()[0]
        full = extend_cliques(dg, vmat[A], s - 2, Counters(), Peeled(live, A, faces, table))[0]
        out = extend_cliques(dg, vmat[A], s - 2, Counters(), Peeled(rounds, A, faces, table))[0]
        assert Counter(map(tuple, out.tolist())) <= Counter(map(tuple, full.tolist()))
        earlier = {R for R, t in zip(of, rounds.tolist()) if 0 <= t < 3}
        kept = set(map(tuple, out.tolist()))
        for row in full.tolist():
            R, extra = tuple(row[:2]), row[2:]
            (F,) = chosen_face(faces, R, of[R])
            head = R[0] + R[1] - F
            dead = any(tuple(sorted((v, w))) in earlier for w in extra for v in (F, head))
            assert (tuple(row) not in kept) == dead
        if s == 3:  # every r-subset of a triangle is the row, {F, w} or {head, w}
            for row in out.tolist():
                assert not any(sub in earlier for sub in combinations(sorted(row), 2))


@pytest.mark.parametrize("name", sorted(SMALL_GRAPHS))
@pytest.mark.parametrize("r,s", [(1, 2), (1, 3), (1, 4), (2, 3)])
@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
def test_update_ids_are_lookups(name, r, s, orientation):
    """At r = 1 and (2,3) UPDATE returns, with each listed row, the id of
    every r-subset of the row in ``combinations`` order over its columns,
    the ids ``table.lookup`` gives, so column 0 is the source row's; at
    r = 1 they are the row itself. This holds under any peel state, and
    with nothing peeled."""
    und, dg = oriented(name, orientation)
    vmat = s_counts_per_r_clique(dg, r, s)[0]
    table = make_table(vmat, und.n, dg=dg)
    faces = peel_faces(und, dg, vmat)
    subs = list(combinations(range(s), r))
    rng = np.random.default_rng(len(vmat) * 31 + s)
    for frac in (0.0, 0.3, 0.7):
        rounds = random_rounds(rng, len(vmat), frac)
        A = (rounds == 3).nonzero()[0]
        for peel in (rounds, np.full(len(vmat), -1, dtype=np.int64)):
            out, ids = extend_cliques(dg, vmat[A], s - r, Counters(), Peeled(peel, A, faces, table))
            assert ids.shape == (len(out), len(subs)) and ids.dtype == np.int64
            want = table.lookup(np.sort(out[:, subs], axis=2).reshape(-1, r)).reshape(ids.shape)
            assert np.array_equal(ids, want)
            assert np.isin(ids[:, 0], A).all() and (ids >= 0).all()
            if r == 1:
                assert ids is out


@pytest.mark.parametrize("name", ["fig1", "k6", "er30", "comm", "rmat6"])
@pytest.mark.parametrize("r,s", [(2, 4), (2, 5), (3, 4)])
def test_update_ids_absent_elsewhere(name, r, s):
    """Outside r = 1 and (2,3) UPDATE names no r-subset: the ids are None."""
    und, dg = setup(name, "degeneracy")
    vmat = s_counts_per_r_clique(dg, r, s)[0]
    A = np.arange(len(vmat))
    live = np.full(len(vmat), -1, dtype=np.int64)
    peeled = Peeled(live, A, peel_faces(und, dg, vmat), make_table(vmat, und.n, dg=dg))
    out, ids = extend_cliques(dg, vmat, s - r, Counters(), peeled)
    assert ids is None and len(out) == comb(s, r) * count_cliques(dg, s)


def row_merge_counts(dg, r, s, roots=None):
    """Counting through the row-rank merge, which every r took before
    r = 2 summed per arc: each chunk's r-clique rows (weight 0) and the
    r-subsets of its s-cliques (weight 1) summed by ``sum_by_row``, and
    the chunks' sums summed the same way. Returns the counts and the
    kernel's work."""
    counters = Counters()
    subs = np.array(list(combinations(range(s), r)), dtype=np.int64)
    parts = []
    for chunk in listing._chunks(dg, roots):
        frontier = listing._frontier(dg, chunk, r, counters)
        r_rows = np.sort(frontier[0], axis=1)
        for _ in range(s - 1 - r):
            frontier = listing._step(dg, *frontier, counters)
        sub_rows = np.sort(listing._grow(*frontier), axis=1)[:, subs].reshape(-1, r)
        weights = np.zeros(len(r_rows) + len(sub_rows), dtype=np.int64)
        weights[len(r_rows) :] = 1
        parts.append(sum_by_row(np.concatenate([r_rows, sub_rows]), weights, dg.n))
    rows = np.concatenate([p[0] for p in parts])
    return sum_by_row(rows, np.concatenate([p[1] for p in parts]), dg.n), counters.work


@pytest.mark.parametrize("name", ["fig1", "k7", "er30", "comm", "rmat6", "two-tri", "path6"])
@pytest.mark.parametrize("s", [3, 4, 5])
@pytest.mark.parametrize("orientation", sorted(ORIENTATIONS))
@pytest.mark.parametrize("chunk", [None, 3])
def test_r2_counts_match_row_merge(monkeypatch, name, s, orientation, chunk):
    """At r = 2 the per-arc sum gives the row-rank merge's rows and
    counts, dtypes included, and the same work: over all roots, a range
    of them and one, in one chunk or many. The partials are the arcs
    counted, ascending, with their nonzero counts; merged, every edge is
    returned, and those with a nonzero count are the row-rank merge's."""
    if chunk is not None:
        monkeypatch.setattr(listing, "CHUNK", chunk)
    _, dg = oriented(name, orientation)
    every = None
    for roots in (None, np.arange(dg.n // 3, dg.n), np.array([1])):
        counters = Counters()
        arcs, part = count_partials(dg, 2, s, roots, counters)
        assert (np.diff(arcs) > 0).all() and (part > 0).all()
        vmat, cnts = merge_counts(dg, 2, [(arcs, part)])
        (want_vmat, want_cnts), work = row_merge_counts(dg, 2, s, roots)
        if roots is None:
            every = vmat
        else:
            assert np.array_equal(vmat, every)
            vmat, cnts = vmat[cnts > 0], cnts[cnts > 0]
            want_vmat, want_cnts = want_vmat[want_cnts > 0], want_cnts[want_cnts > 0]
        assert np.array_equal(vmat, want_vmat) and np.array_equal(cnts, want_cnts)
        assert vmat.dtype == cnts.dtype == np.int64
        assert counters.work == work


@pytest.mark.parametrize("name", ["fig1", "k7", "er30", "comm", "rmat6"])
@pytest.mark.parametrize("wide,r", [(False, 1), (False, 2), (False, 3), (False, 4), (True, 3), (True, 4)])
def test_face_index_matches_brute_force(name, r, wide):
    """Each face lists exactly the vertices that complete it into an
    r-clique, each with that r-clique's id, its row; ``face`` and ``col``
    hold one entry per r-clique. At r >= 3 the faces are the
    (r-1)-faces, and each r-clique's chosen face is one of its own with
    the fewest completions; at r <= 2 they are und's vertices, its own
    arcs, and a completion w of v completes {w} at r = 1, {v, w} at
    r = 2. An r-clique's face is itself at r = 1, its endpoint of lower
    degree (the lower id on a tie) at r = 2, and at r = 2 every DG arc
    carries its edge's id. With ``wide``, vertex ids reach 2^40, so the
    faces' keys take ``row_ranks``, not packing."""
    und, dg = setup(name, "degeneracy")
    vmat = s_counts_per_r_clique(dg, r, r + 1)[0]
    if wide:
        n = 2**40
        vmat = vmat + n - und.n
        faces = face_index(vmat, n)
    else:
        faces = peel_faces(und, dg, vmat)
    id_of = {R: i for i, R in enumerate(map(tuple, vmat.tolist()))}
    assert len(faces.face) == len(vmat)
    assert faces.col is None if r == 1 else len(faces.col) == len(vmat)
    csr = faces.csr
    if r <= 2:
        assert csr is und
        deg = und.degrees()
        for R, rid in id_of.items():
            face = min(R, key=lambda v: (deg[v], v))
            assert faces.face[rid] == face
            if r == 2:
                assert R[faces.col[rid]] == sum(R) - face
        if r == 1:
            assert faces.col is None
        else:
            edges = np.sort(np.stack([dg.arc_src, dg.nbrs], axis=1), axis=1)
            assert [id_of[e] for e in map(tuple, edges.tolist())] == dg.edge_ids.tolist()
        for v in range(und.n):
            pos = range(csr.offsets[v], csr.offsets[v + 1])
            comp = [(int(csr.nbrs[p]), int(faces.ids[p])) for p in pos]
            want = [(w, id_of[(w,) if r == 1 else tuple(sorted((v, w)))]) for w in und.neighbors(v).tolist()]
            assert comp == want
        return
    want: dict[tuple, set] = {}
    for R, rid in id_of.items():
        for j in range(r):
            want.setdefault(R[:j] + R[j + 1 :], set()).add((R[j], rid))
    got = {}
    for f in range(csr.n):
        pos = range(csr.offsets[f], csr.offsets[f + 1])
        comp = {(int(csr.nbrs[p]), int(faces.ids[p])) for p in pos}
        (F,) = {tuple(sorted(set(vmat[rid]) - {w})) for w, rid in comp}
        got[F] = comp
    assert got == want
    face_of = {F: f for f, F in enumerate(sorted(want))}
    for R, rid in id_of.items():
        j = faces.col[rid]
        F = R[:j] + R[j + 1 :]
        assert faces.face[rid] == face_of[F]
        assert len(want[F]) == min(len(want[R[:k] + R[k + 1 :]]) for k in range(r))


def test_extend_fig1_common_neighbours():
    und, dg = setup("fig1")
    # common neighbours of a=0, b=1 in Fig 1: c, d, e, f
    out = update_unpeeled(und, dg, np.array([[0, 1]]), 1)
    assert out[:, :2].tolist() == [[0, 1]] * 4
    assert out[:, 2].tolist() == [2, 3, 4, 5]


def test_counters_count_cliques():
    und, dg = setup("k6")
    counters = Counters()
    edges = enumerate_cliques(dg, 2)
    out = update_unpeeled(und, dg, edges, 1, counters)
    assert len(out) == counters.scliques_discovered == 15 * 4 == 3 * count_cliques(dg, 3)
    assert counters.work > 0
    work = Counters()
    s_counts_per_r_clique(dg, 2, 3, counters=work)
    assert work.work > 0 and work.scliques_discovered == 0


@pytest.mark.parametrize(
    "graph,r,s,work,found",
    [
        (lambda: rmat(9, 10000, seed=15), 3, 4, 244_111, 14_399),
        (
            lambda: community_graph(24, 6, 14, p_intra=0.9, inter_per_vertex=1.2, seed=12),
            2,
            5,
            214_715,
            14_573,
        ),
        (lambda: rmat(12, 20000, seed=14), 2, 3, 181_891, 4_265),
    ],
    ids=["orkut-34", "dblp-25", "skitter-23"],
)
def test_kernel_accounting_pinned(graph, r, s, work, found):
    """The kernel's operation count and UPDATE discoveries on the
    benchmark graphs. The work count moves with the kernel's operations
    (candidates gathered, probes made). The discoveries are the s-cliques
    UPDATE lists. A live one is listed once per r-clique of A it holds; a
    dead one is listed unless one of the r-cliques that UPDATE's chosen
    face completes in it (at r = 2, or one of the edges it probes) was
    peeled in an earlier round. So they move with what UPDATE prunes,
    not with how it lists."""
    res = nucleus_decomposition(graph(), r, s, _best_config(r, s))
    assert res.counters.work == work
    assert res.counters.scliques_discovered == found


def hub_graph(hubs: int, leaves: int) -> np.ndarray:
    """Edges of ``hubs`` adjacent hubs, each adjacent to all of ``leaves``
    leaves, which form a path: the hubs' common neighbourhood is every
    leaf, while the out-degree bound d stays at most hubs + 1."""
    e = [(a, b) for a in range(hubs) for b in range(a + 1, hubs)]
    e += [(h, hubs + x) for h in range(hubs) for x in range(leaves)]
    e += [(hubs + x, hubs + x + 1) for x in range(leaves - 1)]
    return np.array(e, dtype=np.int64)


@pytest.mark.parametrize("r,s", [(1, 3), (2, 4), (3, 4), (3, 5)])
def test_update_work_bounded_on_hub(monkeypatch, r, s):
    """UPDATE over every r-clique stays within O(m * d^(s-2)) work when
    I_R is a whole neighbourhood (the hubs' r-clique): its first level
    gathers at most d out-neighbours per candidate instead of pairing all
    of I_R, which would take C(|I_R|, 2) probes for that one r-clique.
    The completions gathered for each r-clique R are at most the minimum
    degree over R."""
    und = build_csr(hub_graph(r, 1000))
    dg = orient_csr(und, make_rank(und))
    m, d = len(und.nbrs) // 2, int(dg.degrees().max())
    A = s_counts_per_r_clique(dg, r, s)[0]
    faces = peel_faces(und, dg, A)
    gathered = []
    arcs = CSR.arcs

    def spy(self, v):
        out = arcs(self, v)
        if self is not dg:  # the completions, not _enter's out-lists
            gathered.append(np.bincount(out[0], minlength=len(v)))
        return out

    monkeypatch.setattr(CSR, "arcs", spy)
    counters = Counters()
    peeled = Peeled(np.zeros(len(A), dtype=np.int64), np.arange(len(A)), faces, make_table(A, und.n, dg=dg))
    out = extend_cliques(dg, A, s - r, counters, peeled)[0]
    assert len(out) == comb(s, r) * count_cliques(dg, s)
    assert counters.work <= 8 * m * d ** (s - 2)
    assert (np.concatenate(gathered) <= und.degrees()[A].min(axis=1)).all()


def test_roots_partition_counts():
    """Counting over a partition of roots, the split Spark runs, merges to
    the full counts, at r = 3 as rows and at r = 2 as per-arc counts."""
    _, dg = setup("er30")
    parts = [np.arange(lo, min(lo + 7, dg.n)) for lo in range(0, dg.n, 7)]
    for r, s in [(3, 4), (2, 3)]:
        vmat, cnts = s_counts_per_r_clique(dg, r, s)
        rows, sums = merge_counts(dg, r, [count_partials(dg, r, s, roots) for roots in parts])
        assert cnts.sum() > 0 and np.array_equal(rows, vmat) and np.array_equal(sums, cnts)


def dup_rows(n, k, N, seed):
    """(N, k) ids below n drawn from a few values per column (shared
    prefixes, both ends of the id range) and then resampled, so rows repeat."""
    rng = np.random.default_rng(seed)
    alphabet = np.unique(np.concatenate([[0, n // 2, n - 1], rng.integers(0, n, 5)]))
    base = alphabet[rng.integers(0, len(alphabet), (max(1, N // 2), k))]
    return base[rng.integers(0, len(base), N)]


@pytest.mark.parametrize("n", [1, 2, 237, 4095, 2**21, 2**40])
@pytest.mark.parametrize("k", range(1, 8))
@pytest.mark.parametrize("N", [0, 1, 3000])
def test_row_ranks_match_unique_rows(n, k, N):
    rows = dup_rows(n, k, N, seed=n % 1000 + 10 * k + N)
    rank, uniq = row_ranks(rows, n)
    want_uniq, want_rank = np.unique(rows, axis=0, return_inverse=True)
    assert uniq.shape == want_uniq.shape and uniq.dtype == np.int64
    assert np.array_equal(uniq, want_uniq)
    assert np.array_equal(rank, want_rank.reshape(-1))
    assert np.array_equal(uniq[rank], rows)
    lex = [tuple(u) for u in uniq.tolist()]
    assert all(a < b for a, b in zip(lex, lex[1:])), "strictly lex-increasing"


@pytest.mark.parametrize("n,k,passes", [(2**40, 7, 7), (237, 7, 1), (237, 8, 2), (4095, 7, 2)])
def test_row_ranks_packs_columns(monkeypatch, n, k, passes):
    """Each np.unique pass packs every further column that fits in int64:
    n = 2^40 takes one column a pass, n = 237 fits 7 columns in one key."""
    rows = dup_rows(n, k, 3000, seed=k)
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    row_ranks(rows, n)
    assert len(calls) == passes


@pytest.mark.parametrize("n,k", [(2, 3), (237, 5), (4095, 7), (2**40, 3)])
@pytest.mark.parametrize("N", [0, 1, 3000])
def test_sum_by_row_matches_dict_sum(n, k, N):
    rows = dup_rows(n, k, N, seed=N + k)
    weights = np.random.default_rng(N).integers(-8, 8, N) / 4.0
    uniq, sums = sum_by_row(rows, weights, n)
    want: dict[tuple[int, ...], float] = {}
    for row, w in zip(map(tuple, rows.tolist()), weights.tolist()):
        want[row] = want.get(row, 0.0) + w
    assert [tuple(u) for u in uniq.tolist()] == sorted(want)
    assert sums.tolist() == [want[row] for row in sorted(want)]


def _strictly_lex_increasing(vmat: np.ndarray) -> bool:
    rows = [tuple(v) for v in vmat.tolist()]
    return all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("name", ["fig1", "comm", "er30", "rmat6"])
@pytest.mark.parametrize("r,s", [(1, 2), (2, 3), (2, 4), (3, 4)])
@pytest.mark.parametrize("chunk", [None, 3])
def test_s_counts_vmat_lex_sorted(monkeypatch, name, r, s, chunk):
    """Counting returns its r-cliques in lexicographic order, one chunk
    or many, all roots or the merged partials of a range of them: the
    decomposition's output order and table T's build rely on it."""
    if chunk is not None:
        monkeypatch.setattr(listing, "CHUNK", chunk)
    _, dg = setup(name, "degeneracy")
    vmat, _ = s_counts_per_r_clique(dg, r, s)
    assert len(vmat) and _strictly_lex_increasing(vmat)
    part, _ = merge_counts(dg, r, [count_partials(dg, r, s, np.arange(dg.n // 3, dg.n))])
    assert _strictly_lex_increasing(part)
