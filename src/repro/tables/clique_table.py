"""The clique count table ``T`` of ARB-NUCLEUS-DECOMP (paper §5.1-5.3).

``T`` is a stack of hash levels. Every configuration evaluated in §6.2
walks the same stack; they differ only in its top and in how decode
climbs one level:

* ``levels=1`` — one hash table keyed by the packed r-clique.
* ``levels=2, first_level='array'`` — the paper's *two-level* option: an
  array of size n indexed by the first vertex, pointing at last-level
  tables keyed by the remaining (r-1)-clique.
* ``levels=l, first_level='hash'`` — the *l-multi-level* option: nested
  single-vertex hash tables for the first l-1 vertices, a last level
  keyed by the (r-l+1)-vertex suffix. With ``first_level='array'`` the
  first of those vertices indexes an array instead.
* ``contiguous`` — last-level tables packed into one block (with barrier
  cells) vs separately allocated per-region arrays (§5.2); the separate
  arrays are searched and read one region at a time.
* ``decode='pointer'`` — inverse index map by scanning right to an
  empty/barrier cell holding an up-pointer (§5.3, contiguous only);
  ``decode='binsearch'`` — binary search over each level's region starts.

Each level (``_Level``) lays its regions out back to back and is filled
by one batched ``open_addr.insert`` over all of them. ``max_probe``
records the longest insert distance from a key's home slot over all
levels.

An r-clique's identifier everywhere else in the algorithm (bucketing,
counts, core numbers) is its row among the r-cliques in lexicographic
order, the order counting returns them in. T maps rows to cells and
back: ``lookup`` finds a query's last-level cell and maps it to its
row through ``row_of_cell``, and ``decode`` starts from each row's
cell and climbs the levels as §5.3 does. At r <= 2 the graph already
indexes every r-clique, a vertex or one arc of the oriented graph DG,
so ``make_table`` builds no T and ``RowIds`` answers the same queries.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .open_addr import EMPTY_BIT, PAYLOAD_MASK, capacity_for, insert, region_find
from .packing import fits, pack, unpack

if TYPE_CHECKING:
    from ..graphs.csr import CSR

__all__ = ["TableConfig", "CliqueTable", "RowIds", "make_table", "min_levels"]


@dataclass(frozen=True)
class TableConfig:
    """The §5.1-5.3 options of T, checked where they are written, before
    any graph work."""

    levels: int = 1
    first_level: str = "array"  # 'array' | 'hash'; relevant for levels >= 2
    contiguous: bool = True
    decode: str = "pointer"  # 'pointer' | 'binsearch'

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels!r}")
        if self.first_level not in ("array", "hash"):
            raise ValueError(f"first_level must be 'array' or 'hash', got {self.first_level!r}")
        if self.decode not in ("pointer", "binsearch"):
            raise ValueError(f"decode must be 'pointer' or 'binsearch', got {self.decode!r}")
        if self.decode == "pointer" and not self.contiguous:
            raise ValueError("stored-pointer decode requires contiguous last level")

    def label(self) -> str:
        if self.levels == 1:
            return "1-level"
        kind = f"{self.levels}-{'level' if self.first_level == 'array' else 'multi'}"
        return f"{kind}/{'contig' if self.contiguous else 'noncontig'}/{self.decode}"


def min_levels(n: int, r: int) -> int:
    """Smallest l such that the last-level key (r-l+1 vertices) fits 63 bits."""
    for levels in range(1, r + 1):
        if fits(n, r - levels + 1):
            return levels
    raise ValueError(f"no level count fits r={r}, n={n}")


class _Level:
    """One hash level: regions of ``caps`` probe-able cells plus a barrier
    laid out back to back from ``starts``. Every empty and barrier cell
    holds its region's up-pointer ``parent_abs`` (0 for a root region).
    An inner level maps each occupied cell to a next-level region through
    ``vals``; a non-contiguous last level keeps its regions as separate
    ``blocks`` instead of ``cells``."""

    __slots__ = ("cells", "starts", "caps", "parent_abs", "vals", "blocks")

    def __init__(self, counts: np.ndarray, parent_abs: np.ndarray):
        self.caps = capacity_for(counts)
        self.starts = np.cumsum(self.caps + 1) - (self.caps + 1)
        up_ptr = np.maximum(parent_abs, 0).astype(np.uint64)
        self.cells = EMPTY_BIT | np.repeat(up_ptr, self.caps + 1)
        self.parent_abs = parent_abs
        self.vals: np.ndarray | None = None
        self.blocks: list[np.ndarray] | None = None

    def find(self, regs: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """Absolute cell of each (region, key); -1 if absent or ``regs < 0``
        (no such region)."""
        out = np.full(len(keys), -1, dtype=np.int64)
        sel = np.flatnonzero(regs >= 0)
        if self.blocks is None:
            reg = regs[sel]
            out[sel] = region_find(self.cells, self.starts[reg], self.caps[reg], keys[sel])
            return out
        for reg, part in _groups(regs, sel):
            pos = region_find(self.blocks[reg], 0, self.caps[reg], keys[part])
            out[part] = np.where(pos >= 0, pos + self.starts[reg], -1)
        return out

    def values(self, idx: np.ndarray) -> np.ndarray:
        """Cell contents at absolute positions ``idx``."""
        if self.blocks is None:
            return self.cells[idx]
        out = np.empty(len(idx), dtype=np.uint64)
        rid = np.searchsorted(self.starts, idx, side="right") - 1
        for reg, sel in _groups(rid, np.arange(len(idx))):
            out[sel] = self.blocks[reg][idx[sel] - self.starts[reg]]
        return out

    def up(self, idx: np.ndarray, pointer: bool) -> np.ndarray:
        """Parent cell of the region holding each of ``idx``: a binary search
        over region starts, or (``pointer``) a scan right to the first
        empty/barrier cell, whose payload is the up-pointer; each pass
        carries only the indices still scanning."""
        if not pointer:
            return self.parent_abs[np.searchsorted(self.starts, idx, side="right") - 1]
        out = np.empty(len(idx), dtype=np.int64)
        i = np.arange(len(idx))
        pos = idx + 1
        while len(i):
            vals = self.cells[pos]
            hit = vals >= EMPTY_BIT
            done = hit.nonzero()[0]  # integer takes: far cheaper than masks
            out[i[done]] = (vals[done] & PAYLOAD_MASK).astype(np.int64)
            go = (~hit).nonzero()[0]
            i, pos = i[go], pos[go] + 1
        return out


class CliqueTable:
    """See module docstring. Build once from the full set of r-cliques,
    given as distinct sorted-vertex rows in lexicographic order, the
    order counting returns them in."""

    def __init__(self, vmat: np.ndarray, n: int, config: TableConfig | None = None):
        config = config or TableConfig()
        vmat = np.asarray(vmat, dtype=np.int64)
        if vmat.ndim != 2:
            vmat = vmat.reshape(-1, 1)
        self.n = int(n)
        self.r = int(vmat.shape[1]) if vmat.size else (vmat.shape[1] or 1)
        if config.levels > self.r:  # the paper requires l <= r
            config = replace(config, levels=self.r)
        self.config = config
        self.suffix_w = self.r - config.levels + 1
        if not fits(n, self.suffix_w):
            raise ValueError(
                f"last-level key of {self.suffix_w} vertices does not fit for n={n}; "
                f"need levels >= {min_levels(n, self.r)}"
            )
        if not _strictly_increasing(vmat):
            raise ValueError("r-clique rows must be distinct and in lexicographic order")
        self.n_cliques = int(len(vmat))
        self._build(vmat)

    # ------------------------------------------------------------------ build
    def _build(self, vmat: np.ndarray) -> None:
        """Lay out every level's regions back to back and fill each level
        with one batched insert; ``vmat`` holds the distinct rows in
        lexicographic order. The level at column ``col`` has one region
        per distinct col-prefix; an inner level holds the vertex at ``col``
        of each distinct (col+1)-prefix, the last level the packed suffix
        of each row."""
        cfg = self.config
        L = cfg.levels
        self.levels: list[_Level] = []
        self.fl_array: np.ndarray | None = None
        self.max_probe = 0

        parent = np.array([-1], dtype=np.int64)  # a single root region
        self.first_col = 0
        if L > 1 and cfg.first_level == "array":
            parent = vmat[_new_prefix(vmat, 1), 0]  # a level-2 region's parent is v1 itself
            self.fl_array = np.full(self.n, -1, dtype=np.int64)
            self.fl_array[parent] = np.arange(len(parent))
            self.first_col = 1

        for col in range(self.first_col, L):
            inner = col < L - 1
            rows = vmat[_new_prefix(vmat, col + 1)] if inner else vmat
            region = np.cumsum(_new_prefix(rows, col)) - 1
            lvl = _Level(np.bincount(region, minlength=len(parent)), parent)
            keys = pack(rows[:, col : col + 1 if inner else self.r], self.n)
            pos, probe = insert(lvl.cells, lvl.starts[region], lvl.caps[region], keys)
            self.max_probe = max(self.max_probe, probe)
            if inner:
                lvl.vals = np.full(len(lvl.cells), -1, dtype=np.int64)
                lvl.vals[pos] = np.arange(len(pos))
            self.levels.append(lvl)
            parent = pos  # the cells of this level's keys head the next level's regions

        self.last = lvl
        self.capacity = len(lvl.cells)
        self._row_index = pos
        # a miss (cell -1) reads the extra last entry, -1
        self.row_of_cell = np.full(self.capacity + 1, -1, dtype=np.int64)
        self.row_of_cell[pos] = np.arange(len(pos))
        if not cfg.contiguous:  # separately allocated per-region tables (§5.2)
            lvl.blocks = [lvl.cells[a : a + c + 1].copy() for a, c in zip(lvl.starts, lvl.caps)]
            lvl.cells = None

    # ------------------------------------------------------------------ query
    def lookup(self, vmat: np.ndarray) -> np.ndarray:
        """Row of each query r-clique (rows sorted asc); -1 if absent."""
        vmat = np.atleast_2d(np.asarray(vmat, dtype=np.int64))
        if self.fl_array is None:
            regs = np.zeros(len(vmat), dtype=np.int64)
        else:
            regs = self.fl_array[vmat[:, 0]]
        for col, lvl in enumerate(self.levels[:-1], start=self.first_col):
            pos = lvl.find(regs, vmat[:, col].astype(np.uint64))
            regs = np.where(pos >= 0, lvl.vals[pos], -1)
        return self.row_of_cell[self.last.find(regs, pack(vmat[:, self.r - self.suffix_w :], self.n))]

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Inverse index map: rows -> (k, r) sorted vertex matrix, read from
        the rows' cells."""
        idx = self._row_index[np.asarray(rows, dtype=np.int64)]
        out = np.empty((len(idx), self.r), dtype=np.int64)
        out[:, self.r - self.suffix_w :] = unpack(self.last.values(idx), self.n, self.suffix_w)
        pointer = self.config.decode == "pointer"
        cur = idx
        for t in range(len(self.levels) - 1, 0, -1):
            cur = self.levels[t].up(cur, pointer)
            out[:, self.first_col + t - 1] = self.levels[t - 1].values(cur).astype(np.int64)
        if self.fl_array is not None:
            out[:, 0] = self.levels[0].up(cur, pointer)  # parent of a level-2 region is v1
        return out

    # ------------------------------------------------------------------ space
    def memory_units(self) -> int:
        """Units per the paper's model (Figs 3-4): one per stored vertex,
        one per pointer (array slots count as pointers)."""
        units = self.n_cliques * self.suffix_w + (0 if self.fl_array is None else self.n)
        inner = sum(int((lvl.vals >= 0).sum()) for lvl in self.levels[:-1])
        return units + 2 * inner  # vertex + pointer per inner-level entry

    def allocated_cells(self) -> int:
        """Actually allocated cells, including empties and barriers."""
        fl_cells = 0 if self.fl_array is None else self.n
        return fl_cells + sum(int((lvl.caps + 1).sum()) for lvl in self.levels)


def _strictly_increasing(mat: np.ndarray) -> bool:
    """Whether each row of ``mat`` is lexicographically greater than the
    one before it, found one column at a time in O(N * r): ``lt`` marks
    the adjacent pairs already ordered, ``eq`` those equal so far."""
    a, b = mat[:-1], mat[1:]
    lt = np.zeros(len(a), dtype=bool)
    eq = np.ones(len(a), dtype=bool)
    for col in range(mat.shape[1]):
        lt |= eq & (a[:, col] < b[:, col])
        eq &= a[:, col] == b[:, col]
    return bool(lt.all())


def _new_prefix(mat: np.ndarray, j: int) -> np.ndarray:
    """Whether each row of a lex-sorted matrix starts a new distinct j-prefix."""
    first = np.ones(len(mat), dtype=bool)
    first[1:] = np.any(mat[1:, :j] != mat[:-1, :j], axis=1)
    return first


def _groups(rid: np.ndarray, sel: np.ndarray):
    """Split positions ``sel`` by their region id ``rid[sel]``: yields each
    distinct region with its positions, in ascending region order."""
    sel = sel[np.argsort(rid[sel], kind="stable")]
    regions, first = np.unique(rid[sel], return_index=True)
    return zip(regions, np.split(sel, first[1:]))


class RowIds(CliqueTable):
    """T's query surface at r <= 2, where no T is built: ``lookup`` and
    ``decode`` map r-cliques to their rows in ``vmat`` and back, as T's
    do. At r = 1 the rows are the vertices 0..n-1, so a vertex is its
    own row. At r = 2 the rows are the edges of ``dg``, the oriented
    graph, and an edge is found as its arc in DG's arc map
    (``CSR.arc_set``), whose ``CSR.edge_ids`` give the arc's row. It
    holds no cells: 0 memory units, 0 allocated cells, ``max_probe`` 0
    and a capacity of n_r, a fill of 1. It subclasses ``CliqueTable`` so
    that code wrapping T's methods on the class and its subclasses
    (nucbench's spans) reaches its own."""

    def __init__(self, vmat: np.ndarray, n: int, dg: CSR | None = None):
        vmat = np.asarray(vmat, dtype=np.int64)
        if vmat.ndim != 2:
            vmat = vmat.reshape(-1, 1)
        self.vmat, self.n, self.dg = vmat, int(n), dg
        self.r = vmat.shape[1]
        self.n_cliques = self.capacity = len(vmat)
        self.max_probe = 0
        if self.r == 1 and not np.array_equal(vmat[:, 0], np.arange(self.n)):
            raise ValueError("at r = 1 the rows must be every vertex 0..n-1, in order")
        if self.r == 2 and (dg is None or dg.m != len(vmat)):
            raise ValueError("at r = 2 the rows must be the edges of the oriented graph dg")

    def lookup(self, vmat: np.ndarray) -> np.ndarray:
        """Row of each query r-clique (rows sorted asc); -1 if absent."""
        vmat = np.atleast_2d(np.asarray(vmat, dtype=np.int64))
        if self.r == 1:
            v = vmat[:, 0]
            return np.where((v >= 0) & (v < self.n), v, -1)
        pos = self.dg.arc_set.find(self.dg.edge_keys(vmat[:, 0], vmat[:, 1]))
        ids = self.dg.edge_ids[pos]
        ids[pos < 0] = -1
        return ids

    def decode(self, rows: np.ndarray) -> np.ndarray:
        """Rows -> (k, r) sorted vertex matrix."""
        return self.vmat[rows]

    def memory_units(self) -> int:
        return 0

    def allocated_cells(self) -> int:
        return 0


def make_table(
    vmat: np.ndarray, n: int, config: TableConfig | None = None, dg: CSR | None = None
) -> CliqueTable:
    """Factory: T over the r-cliques ``vmat``, auto-raising the level count
    when the key would not fit; at r <= 2 no T but ``RowIds``, which
    ignores ``config`` and at r = 2 finds the edges in ``dg``. Either
    way an r-clique's id is its row in ``vmat``."""
    config = config or TableConfig()
    r = vmat.shape[1] if vmat.ndim == 2 else 1
    if r <= 2:
        return RowIds(vmat, n, dg)
    return CliqueTable(vmat, n, replace(config, levels=max(config.levels, min_levels(n, r))))
