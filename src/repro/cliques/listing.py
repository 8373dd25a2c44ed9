"""Level-synchronous clique listing: REC-LIST-CLIQUES (Algorithm 1) and
the UPDATE listing of Algorithm 2 (lines 15-17), as one frontier kernel.

A frontier is Algorithm 1's recursion state for many calls at once: an
(N, k) matrix of k-cliques (``rows``) and, flat and grouped by row, the
candidate set I of every row (``grp``, ``cand``): the vertices adjacent
to all of the row. One step runs the loop of Algorithm 1 line 7 for
every row together: each candidate p becomes a child row
``rows[grp[p]] ++ cand[p]`` whose candidate set is I ∩ N+(cand[p]) in
DG. The last level takes no step: its cliques are the child rows
themselves (``_grow``).

A step forms I ∩ N+(p) one of two ways, each testing at most d
vertices per child, d <= 2*alpha - 1 the out-degree bound:

* ``_step``, when I is already inside an out-list and so holds at most
  d vertices in rank order: the later candidates q of p's group with an
  arc ``p -> q``, one probe of DG's arc map of ``src * n + dst`` keys
  (``CSR.arc_set``) per pair, O(1) expected, as with the paper's
  adjacency hash tables.
* ``_enter``, when I is any set, possibly far larger than d: the
  out-list of p (at most d vertices, in rank order), each looked up in
  p's group's I by a binary search of the sorted ``grp * n + cand``
  keys.

``orient_csr`` keeps out-lists in rank order and children keep their
group's order, so the order holds at every level. Counting starts from
the roots with I = N+(root) and only takes ``_step``s; each c-clique is
listed once, by its orientation-order prefix. UPDATE starts from each
peeled r-clique R with I = I_R, its common neighbourhood in the current
undirected graph, which can hold a whole neighbourhood; its first step
is ``_enter`` and the rest are ``_step``s.

DG's arc map is the only arc structure: no undirected graph builds
one. It maps an arc's key to the arc's CSR position (``KeySet.find``),
and at r = 2, where every r-clique is exactly one DG arc, that position
stands for the edge. So counting's partials over a set of roots
(``count_partials``) are per-arc counts at r = 2 and r-clique rows
otherwise, and ``merge_counts``, the one merge, sums those of any split
of the roots, for local counting and Spark alike.

UPDATE draws I_R from the completions of one face F of R (``Faces``,
built by ``peel_faces``): the vertices w that make F ∪ {w} an r-clique,
each carrying that r-clique's id. F is R itself at r = 1, its
endpoint of lower degree at r = 2 and its (r-1)-face with the fewest
completions at r >= 3. A completion whose r-clique was peeled in an
earlier round is dropped before any probe, since every s-clique through
it is dead. At r >= 2 each kept w is then probed against the one vertex
of R outside F in DG's map, by the key of the edge's arc in rank
direction (``CSR.edge_keys``). At r = 2 that edge is an r-clique too: a
hit gives its r-clique id (``CSR.edge_id``), and w is dropped if the
edge was peeled in an earlier round. With nothing peeled (every round
-1) nothing is dropped.

Work matches O(m * alpha^(c-2)) per Shi et al. [60]. The kernel adds
its operation count (candidates gathered plus probes and lookups) to
``Counters.work``. ``CHUNK`` bounds the frontier: counting runs over
root ranges of that many vertices, UPDATE over blocks of that many
peeled r-cliques.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

import numpy as np

from ..graphs.csr import CSR
from ..instrument import Counters
from ..tables.packing import row_ranks

__all__ = [
    "CHUNK",
    "Faces",
    "Peeled",
    "count_cliques",
    "count_partials",
    "edge_counts",
    "enumerate_cliques",
    "face_index",
    "merge_counts",
    "peel_faces",
    "s_counts_per_r_clique",
    "set_edge_faces",
    "sum_by_row",
    "extend_cliques",
]

CHUNK = 2048  # roots per counting chunk; peeled r-cliques per UPDATE block


def _grow(rows: np.ndarray, grp: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The (k+1)-cliques of a frontier: every row followed by each of its
    candidates."""
    return np.column_stack([rows[grp], cand])


def _step(
    graph: CSR, rows: np.ndarray, grp: np.ndarray, cand: np.ndarray, counters: Counters
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level of Algorithm 1 for every row of the frontier at once, for
    candidate sets in rank order that lie inside one out-list each.

    Returns the child frontier: child row p is ``rows[grp[p]] ++ cand[p]``,
    and its candidates are the later candidates q of its group with an
    arc ``cand[p] -> cand[q]`` in ``graph``, in group order.
    """
    p = np.arange(len(cand))
    later = np.cumsum(np.bincount(grp, minlength=len(rows)))[grp] - p - 1
    child = np.repeat(p, later)
    # pair t of child p probes q = p + 1 + (t - first pair of p)
    q = np.arange(len(child)) - np.repeat(np.cumsum(later) - later - p - 1, later)
    counters.work += len(child)
    hit = graph.arc_set.contains(cand[child] * graph.n + cand[q]).nonzero()[0]
    return _grow(rows, grp, cand), child[hit], cand[q[hit]]


def _enter(
    dg: CSR, rows: np.ndarray, grp: np.ndarray, cand: np.ndarray, counters: Counters
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level of Algorithm 1 for candidate sets of any size and order.

    Returns the child frontier: child row p is ``rows[grp[p]] ++ cand[p]``,
    and its candidates are the out-neighbours of ``cand[p]`` in ``dg``
    that are candidates of its group, in rank order. Each child gathers
    at most d out-neighbours, whatever the size of its group.
    """
    i, w = dg.gather(cand)
    counters.work += 2 * len(w)  # gathered, then looked up
    keys = np.sort(grp * dg.n + cand)
    q = grp[i] * dg.n + w
    ok = (keys[np.minimum(np.searchsorted(keys, q), len(keys) - 1)] == q).nonzero()[0]
    return _grow(rows, grp, cand), i[ok], w[ok]


def _frontier(
    dg: CSR, roots: np.ndarray, k: int, counters: Counters
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frontier of the k-cliques rooted at ``roots``, orientation order,
    every one with its candidate set, including those with none."""
    grp, cand = dg.gather(roots)
    counters.work += len(cand)
    frontier = roots.reshape(-1, 1), grp, cand
    for _ in range(k - 1):
        frontier = _step(dg, *frontier, counters)
    return frontier


def _cliques(dg: CSR, roots: np.ndarray, c: int, counters: Counters) -> np.ndarray:
    """(N, c) matrix of the c-cliques rooted at ``roots``, orientation order."""
    if c == 1:
        return roots.reshape(-1, 1)
    return _grow(*_frontier(dg, roots, c - 1, counters))


def _chunks(dg: CSR, roots: np.ndarray | None):
    roots = np.arange(dg.n) if roots is None else roots
    roots = np.asarray(roots, dtype=np.int64)
    for lo in range(0, len(roots), CHUNK):
        yield roots[lo : lo + CHUNK]


def count_cliques(dg: CSR, c: int) -> int:
    """Total number of c-cliques."""
    if c < 1:
        return 0
    counters = Counters()
    return sum(len(_cliques(dg, chunk, c, counters)) for chunk in _chunks(dg, None))


def enumerate_cliques(dg: CSR, c: int) -> np.ndarray:
    """All c-cliques as an (n_c, c) matrix with sorted vertex rows."""
    counters = Counters()
    parts = [_cliques(dg, chunk, c, counters) for chunk in _chunks(dg, None)]
    out = np.concatenate(parts) if parts else np.empty((0, c), dtype=np.int64)
    out.sort(axis=1)
    return out


def sum_by_row(rows: np.ndarray, weights: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows (lexicographic order) and the summed weights of each,
    in the weights' dtype (integer sums are exact below 2^53)."""
    rank, uniq = row_ranks(rows, n)
    sums = np.bincount(rank, weights=weights, minlength=len(uniq))
    return uniq, sums.astype(weights.dtype, copy=False)


def count_partials(
    dg: CSR, r: int, s: int, roots: np.ndarray | None = None, counters: Counters | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The s-cliques rooted at ``roots`` (default: every vertex) summed
    per r-clique: the partials ``merge_counts`` sums over any split of
    the roots, whose form is decided here only. Every s-clique extends
    exactly one r-clique (its first r vertices in orientation order), so
    the s-cliques are grown from the level-r frontier. At r = 2 each of
    an s-clique's C(s, 2) column pairs is a DG arc's key: the partials
    are the counted arcs' positions, ascending, and their counts.
    Otherwise they are distinct r-clique rows, lexicographic, and their
    counts, by ``sum_by_row`` over the frontier's rows (weight 0, so an
    r-clique in no s-clique is kept) and each s-clique's C(s, r)
    r-subsets (weight 1), which may be rooted elsewhere. Chunks of
    ``CHUNK`` roots are merged here. Sums add nothing to ``Counters.work``.
    """
    counters = counters if counters is not None else Counters()
    if r == 2:
        left, right = np.array(list(combinations(range(s), 2)), dtype=np.int64).T
        pos = [dg.nbrs[:0]]  # typed if no chunk runs
        for chunk in _chunks(dg, roots):
            rows = _cliques(dg, chunk, s, counters)
            pos.append(dg.arc_set.find((rows[:, left] * dg.n + rows[:, right]).ravel()))
        cnt = np.bincount(np.concatenate(pos), minlength=dg.m)
        arcs = cnt.nonzero()[0]
        return arcs, cnt[arcs]
    subs = np.array(list(combinations(range(s), r)), dtype=np.int64)
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for chunk in _chunks(dg, roots):
        frontier = _frontier(dg, chunk, r, counters)
        r_rows = np.sort(frontier[0], axis=1)
        for _ in range(s - 1 - r):
            frontier = _step(dg, *frontier, counters)
        sub_rows = np.sort(_grow(*frontier), axis=1)[:, subs].reshape(-1, r)
        weights = np.zeros(len(r_rows) + len(sub_rows), dtype=np.int64)
        weights[len(r_rows) :] = 1
        parts.append(sum_by_row(np.concatenate([r_rows, sub_rows]), weights, dg.n))
    return merge_counts(dg, r, parts)


def merge_counts(
    dg: CSR, r: int, parts: list[tuple[np.ndarray, np.ndarray]]
) -> tuple[np.ndarray, np.ndarray]:
    """(vmat, cnts) from the ``count_partials`` of any split of the roots:
    the lexicographically sorted (n_r, r) r-cliques with sorted rows and
    their int64 s-clique counts. At r = 2 the partials add exactly into
    one int64 count per arc, put in edge order by ``edge_counts``;
    otherwise ``sum_by_row`` sums the rows, and one part passes through.
    """
    if r == 2:
        cnt = np.zeros(dg.m, dtype=np.int64)
        for arcs, part in parts:
            cnt[arcs] += part  # a part's arcs are distinct
        return edge_counts(dg, cnt)
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return np.empty((0, r), dtype=np.int64), np.empty(0, dtype=np.int64)
    return sum_by_row(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts]), dg.n
    )


def edge_counts(dg: CSR, cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(vmat, cnts) at r = 2 from the per-arc counts ``cnt`` of ``dg``:
    its arcs as sorted (min, max) vertex rows in lexicographic order, by
    ``CSR.edge_order``, and their counts."""
    arcs = dg.edge_order
    src, dst = dg.arc_src[arcs], dg.nbrs[arcs]
    lo = np.minimum(src, dst)
    return np.column_stack([lo, src + dst - lo]), cnt[arcs]


def s_counts_per_r_clique(
    dg: CSR, r: int, s: int, *, counters: Counters | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """s-clique count of every r-clique (COUNT-FUNC of Algorithm 2), as
    ``merge_counts`` returns it: r-cliques with no incident s-clique are
    included (they form the 0-bucket)."""
    return merge_counts(dg, r, [count_partials(dg, r, s, None, counters)])


class Faces(NamedTuple):
    """The completions of every face, where UPDATE draws I_R from, and the
    face it takes for each r-clique.

    Face f's completions are ``csr.neighbors(f)``, and ``ids`` holds,
    aligned with ``csr.nbrs``, the id of the r-clique each one
    completes: its row in counting's order. By r-clique id, ``face``
    gives each r-clique's face and ``col`` the column of the one vertex
    the face leaves out (None at r = 1, where the face is the r-clique),
    n_r entries each. ``peel_faces`` builds them. At r >= 3
    (``face_index``) the faces are the (r-1)-faces of the r-cliques. At
    r <= 2 they are the vertices and ``csr`` the undirected graph, less
    any arcs that contraction removed; at r = 2 a completion's id is its
    edge's.
    """

    csr: CSR
    ids: np.ndarray
    face: np.ndarray
    col: np.ndarray | None = None


class Peeled(NamedTuple):
    """The peeling loop's state that lets UPDATE drop dead candidates."""

    round: np.ndarray  # peel round of every r-clique id, -1 while live
    ids: np.ndarray  # id of each r-clique listed, all peeled in one round
    faces: Faces


def _face_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """int64 keys in the lexicographic order of the rows: the rows packed
    base n when they fit, their ``row_ranks`` otherwise."""
    if int(n) ** rows.shape[1] >= 2**63:
        return row_ranks(rows, n)[0]
    key = rows[:, 0].copy()
    for col in rows[:, 1:].T:
        key = key * n + col
    return key


def face_index(vmat: np.ndarray, n: int) -> Faces:
    """The (r-1)-faces of the r-cliques ``vmat`` (sorted rows, each
    r-clique's id its row), r >= 3, with their completions.

    Every (r-clique R, column j) pair is an entry j * n_r + R: the face R
    less R[j], completed by R[j] into R. One sort of the faces' packed
    keys groups the entries by face, giving the CSR offsets over faces
    and each entry's face id; each r-clique keeps the one of its r faces
    with the fewest completions, at most the degree of any vertex of R.
    """
    n_r, r = vmat.shape
    keep = ~np.eye(r, dtype=bool)
    key = _face_keys(np.concatenate([vmat[:, keep[j]] for j in range(r)]), n)
    order = np.argsort(key)
    key = key[order]
    start = np.ones(len(key), dtype=bool)
    start[1:] = key[1:] != key[:-1]
    entry_face = np.empty(len(key), dtype=np.int64)
    entry_face[order] = np.cumsum(start) - 1
    offsets = np.append(start.nonzero()[0], len(key))
    of = entry_face.reshape(r, n_r).T  # of[R, j]: the face of R less R[j]
    col = np.diff(offsets)[of].argmin(axis=1)
    face = of[np.arange(n_r), col]
    csr = CSR(len(offsets) - 1, offsets, vmat.T.ravel()[order])
    return Faces(csr, order % n_r, face, col.astype(np.int8))


def set_edge_faces(faces: Faces, lo: np.ndarray, hi: np.ndarray, ids: np.ndarray) -> Faces:
    """Write the r = 2 ``face`` and ``col`` of the edges (lo[i], hi[i]),
    lo < hi, with r-clique ids ``ids`` into ``faces``, in place, and return it:
    an edge's face is its endpoint of lower degree in ``faces.csr`` (lo
    on a tie), and col the column of the other."""
    deg = faces.csr.degrees()
    probe_hi = deg[lo] <= deg[hi]
    faces.face[ids] = np.where(probe_hi, lo, hi)
    faces.col[ids] = probe_hi
    return faces


def peel_faces(und: CSR, dg: CSR, vmat: np.ndarray) -> Faces:
    """UPDATE's faces for the r-cliques ``vmat`` of ``und`` (``dg`` its
    orientation), in the order counting returns them (sorted rows,
    lexicographic order), each r-clique's id its row.

    At r = 1 the r-cliques are every vertex in order, each its own face,
    and each completion, a vertex, is its own id. At r = 2 they are und's
    edges (u, v), u < v, and each arc carries its edge's row: the arcs
    u -> v, u < v, are already in that order, and the arcs v -> u take
    one argsort. Asking DG's arc map for each of them instead costs more:
    0.71 against 0.40 ms on skitter-23's graph and 55 against 41 ms at
    ``rmat(17, 1M)``, on a 4-core x86 box. DG's arcs carry their edges'
    rows in ``CSR.edge_ids``, read by ``CSR.edge_id``. At r >= 3 the
    faces are the (r-1)-faces (``face_index``).
    """
    r = vmat.shape[1]
    if r >= 3:
        return face_index(vmat, und.n)
    if r == 1:
        return Faces(und, und.nbrs, vmat[:, 0])
    src, nbrs = und.arc_src, und.nbrs
    lower = src < nbrs
    upper = np.flatnonzero(~lower)
    rows = np.arange(len(vmat))
    arc_id = np.empty(len(nbrs), dtype=np.int64)
    arc_id[lower] = rows
    # an arc v -> u, u < v, keyed u*n + v sorts into the edges' order
    arc_id[upper[np.argsort(nbrs[upper] * und.n + src[upper])]] = rows
    face, col = np.empty(len(vmat), dtype=np.int64), np.empty(len(vmat), dtype=np.int8)
    return set_edge_faces(Faces(und, arc_id, face, col), vmat[:, 0], vmat[:, 1], rows)


def extend_cliques(
    dg: CSR,
    A_rows: np.ndarray,
    need: int,
    counters: Counters,
    peeled: Peeled,
) -> np.ndarray:
    """Every s-clique containing each r-clique of A, where need = s - r
    (UPDATE, Algorithm 2 lines 15-17, batched over the peeled set A),
    less those through an r-clique peeled before A's round.

    Returns a (found, r + need) matrix: each row is its source row of
    ``A_rows`` followed by the extra vertices, so a listed s-clique
    appears once per r-clique of A it contains. Each row's candidate set
    is I_R, the common neighbourhood of the row in the undirected graph:
    the completions of its face F (``peeled.faces``), which are at most
    min_i deg(v_i) (the work of Lemma 4.1), each probed at r >= 2 against
    the one vertex of the row outside F in DG's arc map
    (``CSR.edge_keys``), since DG holds each edge of the graph once, in
    rank direction. The extra vertices are the need-cliques of DG inside
    I_R: one ``_enter``, as I_R may be a whole neighbourhood, then
    need - 2 ``_step``s and one ``_grow``.

    A completion is dropped before any probe if its r-clique was peeled
    in a round before the row's (``peeled.round``), or is the row itself.
    At r = 2 a completion whose probed edge was peeled before the row's
    round is dropped as well (``CSR.edge_id``). Every s-clique through
    a dropped completion holds that r-clique, so it is dead; every later
    level draws from I_R, so no other level tests it. With every round
    -1 nothing is peeled before, and every s-clique is listed.
    """
    r = A_rows.shape[1]
    faces = peeled.faces
    parts = []
    for lo in range(0, len(A_rows), CHUNK):
        B = A_rows[lo : lo + CHUNK]
        own = peeled.ids[lo : lo + CHUNK]
        i, pos = faces.csr.arcs(faces.face[own])
        w = faces.csr.nbrs[pos]
        counters.work += len(w)
        rid = faces.ids[pos]
        # as unsigned, -1 (live) is above every round: this keeps the
        # completions not peeled before the rows' round
        now = np.uint64(peeled.round[own[0]])
        keep = ((peeled.round[rid].view(np.uint64) >= now) & (rid != own[i])).nonzero()[0]
        i, w = i[keep], w[keep]
        if r > 1:  # the one vertex the face leaves out
            head = B[np.arange(len(B)), faces.col[own]]
            counters.work += len(w)
            if r == 2:  # the edge {head, w} is an r-clique, dead if peeled earlier
                rid = dg.edge_id(head[i], w)
                keep = ((rid >= 0) & (peeled.round[rid].view(np.uint64) >= now)).nonzero()[0]
            else:
                keep = dg.arc_set.contains(dg.edge_keys(head[i], w)).nonzero()[0]
            i, w = i[keep], w[keep]
        frontier = B, i, w
        if need > 1:
            frontier = _enter(dg, *frontier, counters)
        for _ in range(need - 2):
            frontier = _step(dg, *frontier, counters)
        parts.append(_grow(*frontier))
    found = np.concatenate(parts) if parts else np.empty((0, r + need), dtype=np.int64)
    counters.scliques_discovered += len(found)
    return found
