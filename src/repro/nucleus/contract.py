"""Graph contraction for (2,3) nucleus decomposition (paper §5.6).

At r = 2 UPDATE's faces (``listing.Faces``) are the vertices of the
undirected graph, and every arc carries its edge's r-clique id, so
``Bucketing.round`` (each id's peel round, -1 while live) is all the
peel state the heuristic reads. A check runs once the edges peeled
since the last check reach 2n. A vertex qualifies when the arcs it lost
since the last contraction, those whose edge was peeled after that
round, are at least a quarter of its degree; the degree is the current
graph's, since the graph changes only at a contraction. The adjacency
lists of qualifying vertices are filtered of peeled edges with one
mask, applied to the arcs and their ids alike, shrinking later
intersection work. Each live edge's face, its endpoint of lower degree,
is then chosen again from the contracted degrees and written over the
faces' own ``face`` and ``col``, so the input faces are spent. Only
valid for r = 2: a peeled r-clique for r > 2 has no single edge to
remove.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cliques.listing import Faces, set_edge_faces
from ..graphs.csr import CSR

__all__ = ["ContractionState", "maybe_contract"]


@dataclass
class ContractionState:
    """What the heuristic carries between checks; built only when it runs."""

    checked: int = 0  # edges peeled at the last check
    since: int = -1  # round of the last contraction
    contractions: int = 0


def maybe_contract(
    faces: Faces, state: ContractionState, peeled: np.ndarray, round_no: int, finished: int
) -> Faces:
    """Apply the §5.6 heuristic to the r = 2 ``faces`` after round
    ``round_no``, with ``finished`` edges peeled so far; returns the
    (possibly new) faces."""
    und = faces.csr
    if finished - state.checked < 2 * und.n:
        return faces
    state.checked = finished
    src = und.arc_src
    at = peeled[faces.ids]
    lost = np.bincount(src[at > state.since], minlength=und.n)
    qualify = (lost * 4 >= np.maximum(und.degrees(), 1)) & (lost > 0)
    if not qualify.any():
        return faces
    keep = ~qualify[src] | (at < 0)
    state.since = round_no
    state.contractions += 1
    csr = CSR.from_arcs(und.n, src[keep], und.nbrs[keep])
    faces = faces._replace(csr=csr, ids=faces.ids[keep])
    lower = csr.arc_src < csr.nbrs  # every live edge keeps both arcs
    return set_edge_faces(faces, csr.arc_src[lower], csr.nbrs[lower], faces.ids[lower])
