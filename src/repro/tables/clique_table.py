"""The clique count table ``T`` of ARB-NUCLEUS-DECOMP (paper §5.1-5.3).

Supports every configuration evaluated in §6.2:

* ``levels=1`` — one hash table keyed by the packed r-clique.
* ``levels=2, first_level='array'`` — the paper's *two-level* option: an
  array of size n indexed by the first vertex, pointing at last-level
  tables keyed by the remaining (r-1)-clique.
* ``levels=l, first_level='hash'`` — the *l-multi-level* option: nested
  single-vertex hash tables for the first l-1 vertices, a last level
  keyed by the (r-l+1)-vertex suffix.
* ``contiguous`` — last-level tables packed into one block (with barrier
  cells) vs separately allocated per-region arrays (§5.2).
* ``decode='pointer'`` — inverse index map by scanning right to an
  empty/barrier cell holding an up-pointer (§5.3, contiguous only);
  ``decode='binsearch'`` — binary search over per-level prefix sums.

Each level lays its regions out back to back and is filled by one
batched ``open_addr.insert`` over all of them; the non-contiguous last
level is then copied out region by region. ``max_probe`` records the
longest insert distance from a key's home slot over all levels.

An r-clique's identifier everywhere else in the algorithm (bucketing,
counts, core numbers) is its absolute cell position in the last level,
exactly as in §5.3.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .open_addr import EMPTY_BIT, PAYLOAD_MASK, capacity_for, insert, region_find
from .packing import bits_for, fits, pack, unpack

__all__ = ["TableConfig", "CliqueTable", "make_table", "min_levels"]


@dataclass(frozen=True)
class TableConfig:
    levels: int = 1
    first_level: str = "array"  # 'array' | 'hash'; relevant for levels >= 2
    contiguous: bool = True
    decode: str = "pointer"  # 'pointer' | 'binsearch'
    load: float = 0.5

    def label(self) -> str:
        if self.levels == 1:
            return "1-level"
        kind = "2-level" if (self.levels == 2 and self.first_level == "array") else f"{self.levels}-multi"
        return f"{kind}/{'contig' if self.contiguous else 'noncontig'}/{self.decode}"


def min_levels(n: int, r: int) -> int:
    """Smallest l such that the last-level key (r-l+1 vertices) fits 63 bits."""
    for levels in range(1, r + 1):
        if fits(n, r - levels + 1):
            return levels
    raise ValueError(f"no level count fits r={r}, n={n}")


class _InterLevel:
    """One intermediate level: single-vertex keys pointing at next-level regions."""

    __slots__ = ("cells", "vals", "starts", "caps", "parent_abs", "bounds")

    def __init__(self, counts: np.ndarray, parent_abs: np.ndarray, load: float):
        self.caps = capacity_for(counts, load)
        self.starts = _region_starts(self.caps)
        self.cells = _region_cells(self.caps, parent_abs)
        self.vals = np.full(len(self.cells), -1, dtype=np.int64)
        self.parent_abs = parent_abs
        self.bounds = self.starts  # sorted region starts, for binary search


class CliqueTable:
    """See module docstring. Build once from the full set of r-cliques."""

    def __init__(self, vmat: np.ndarray, n: int, config: TableConfig | None = None):
        config = config or TableConfig()
        vmat = np.asarray(vmat, dtype=np.int64)
        if vmat.ndim != 2:
            vmat = vmat.reshape(-1, 1)
        self.n = int(n)
        self.r = int(vmat.shape[1]) if vmat.size else (vmat.shape[1] or 1)
        if config.levels > self.r:  # the paper requires l <= r
            config = replace(config, levels=self.r)
        if config.levels < 1:
            raise ValueError("levels must be >= 1")
        self.config = config
        self.suffix_w = self.r - config.levels + 1
        if not fits(n, self.suffix_w):
            raise ValueError(
                f"last-level key of {self.suffix_w} vertices does not fit for n={n}; "
                f"need levels >= {min_levels(n, self.r)}"
            )
        if config.decode == "pointer" and not config.contiguous:
            raise ValueError("stored-pointer decode requires contiguous last level")
        self.n_cliques = int(len(vmat))
        order = np.lexsort(tuple(vmat[:, j] for j in range(self.r - 1, -1, -1)))
        self._build(vmat[order], order)

    # ------------------------------------------------------------------ build
    def _build(self, vmat: np.ndarray, order: np.ndarray) -> None:
        """Lay out every level's regions back to back and fill each level
        with one batched insert."""
        cfg = self.config
        L = cfg.levels
        self.inter: list[_InterLevel] = []
        self.fl_array: np.ndarray | None = None
        self.max_probe = 0

        # Distinct prefixes per length j = 1..L-1 (lexicographically sorted).
        prefixes = [vmat[_new_prefix(vmat, j), :j] for j in range(1, L)]

        parent = np.array([-1], dtype=np.int64)  # a single root region
        inter_cols = range(L - 1)
        if L > 1 and cfg.first_level == "array":
            self.fl_array = np.full(self.n, -1, dtype=np.int64)
            self.fl_array[prefixes[0][:, 0]] = np.arange(len(prefixes[0]))
            # parent of a level-2 region under an array first level is v1 itself
            parent = prefixes[0][:, 0]
            inter_cols = range(1, L - 1)

        # Intermediate single-vertex hash levels; regions are keyed by
        # col-length prefixes and hold the last vertex of (col+1)-prefixes.
        for col in inter_cols:
            region = _prefix_inverse(prefixes[col], col)
            lvl = _InterLevel(np.bincount(region, minlength=len(parent)), parent, cfg.load)
            parent = self._insert(lvl.cells, lvl.starts, lvl.caps, region, prefixes[col][:, col])
            lvl.vals[parent] = np.arange(len(parent))
            self.inter.append(lvl)

        # Last level: one region per (L-1)-prefix, keyed by the packed suffix.
        region = _prefix_inverse(vmat, L - 1)
        self.last_caps = capacity_for(np.bincount(region, minlength=len(parent)), cfg.load)
        self.last_starts = _region_starts(self.last_caps)
        self.last_parent_abs = parent
        cells = _region_cells(self.last_caps, parent)
        self.capacity = len(cells)
        keys = pack(vmat[:, L - 1 :], self.n)
        pos = self._insert(cells, self.last_starts, self.last_caps, region, keys)
        self._row_index = np.empty(len(pos), dtype=np.int64)
        self._row_index[order] = pos
        if self.config.contiguous or L == 1:
            self.last_cells = cells
        else:  # separately allocated per-region tables (§5.2)
            self.last_blocks = [
                cells[a : a + c + 1].copy() for a, c in zip(self.last_starts, self.last_caps)
            ]

    def _insert(self, cells, starts, caps, region, keys) -> np.ndarray:
        """Insert each key into its region of one level; track the longest probe."""
        pos, probe = insert(cells, starts[region], caps[region], keys.astype(np.uint64))
        self.max_probe = max(self.max_probe, probe)
        return pos

    # ------------------------------------------------------------------ query
    def row_indices(self) -> np.ndarray:
        """Cell index of each input row, in original input order."""
        return self._row_index

    def occupied_indices(self) -> np.ndarray:
        """Sorted cell indices of all stored r-cliques."""
        if self.config.contiguous or self.config.levels == 1:
            return np.flatnonzero((self.last_cells & EMPTY_BIT) == 0)
        parts = []
        for rid, blk in enumerate(self.last_blocks):
            local = np.flatnonzero((blk & EMPTY_BIT) == 0)
            parts.append(local + self.last_starts[rid])
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _cell_values(self, idx: np.ndarray) -> np.ndarray:
        if self.config.contiguous or self.config.levels == 1:
            return self.last_cells[idx]
        rid = np.searchsorted(self.last_starts, idx, side="right") - 1
        out = np.empty(len(idx), dtype=np.uint64)
        for i, (r_, p_) in enumerate(zip(rid, idx)):
            out[i] = self.last_blocks[r_][p_ - self.last_starts[r_]]
        return out

    def lookup(self, vmat: np.ndarray) -> np.ndarray:
        """Cell index of each query r-clique (rows sorted asc); -1 if absent."""
        vmat = np.atleast_2d(np.asarray(vmat, dtype=np.int64))
        k = len(vmat)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        L = self.config.levels
        if L == 1:
            keys = pack(vmat, self.n)
            return region_find(
                self.last_cells,
                np.zeros(k, dtype=np.int64),
                np.full(k, self.last_caps[0]),
                keys,
            )
        if self.config.first_level == "array":
            regs = self.fl_array[vmat[:, 0]]
            col = 1
        else:
            regs = None
            col = 0
        for lvl in self.inter:
            if regs is None:
                starts = np.zeros(k, dtype=np.int64)
                caps = np.full(k, lvl.caps[0])
            else:
                ok = regs >= 0
                starts = np.where(ok, lvl.starts[np.clip(regs, 0, None)], -1)
                caps = lvl.caps[np.clip(regs, 0, None)]
            pos = region_find(lvl.cells, starts, caps, vmat[:, col].astype(np.uint64))
            regs = np.where(pos >= 0, lvl.vals[np.clip(pos, 0, None)], -1)
            col += 1
        keys = pack(vmat[:, L - 1 :], self.n)
        ok = regs >= 0
        safe = np.clip(regs, 0, None)
        starts = np.where(ok, self.last_starts[safe], -1)
        caps = self.last_caps[safe]
        if self.config.contiguous:
            return region_find(self.last_cells, starts, caps, keys)
        out = np.full(k, -1, dtype=np.int64)
        for rid in np.unique(safe[ok]):
            sel = np.flatnonzero(ok & (regs == rid))
            pos = region_find(
                self.last_blocks[rid],
                np.zeros(len(sel), dtype=np.int64),
                np.full(len(sel), self.last_caps[rid]),
                keys[sel],
            )
            out[sel] = np.where(pos >= 0, pos + self.last_starts[rid], -1)
        return out

    # ----------------------------------------------------------------- decode
    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Inverse index map: cell indices -> (k, r) sorted vertex matrix."""
        idx = np.asarray(idx, dtype=np.int64)
        L = self.config.levels
        out = np.empty((len(idx), self.r), dtype=np.int64)
        vals = self._cell_values(idx)
        out[:, L - 1 :] = unpack(vals, self.n, self.suffix_w)
        if L == 1:
            return out
        if self.config.decode == "binsearch":
            rid = np.searchsorted(self.last_starts, idx, side="right") - 1
            self._decode_binsearch_prefix(rid, out)
        else:
            self._decode_pointer_prefix(idx, out)
        return out

    def _decode_binsearch_prefix(self, rid: np.ndarray, out: np.ndarray) -> None:
        """Walk the parent chain; each hop is a binary search over region starts."""
        L = self.config.levels
        cur = self.last_parent_abs[rid]
        for t in range(len(self.inter) - 1, -1, -1):
            lvl = self.inter[t]
            col = t if self.config.first_level == "hash" else t + 1
            out[:, col] = (lvl.cells[cur] & PAYLOAD_MASK).astype(np.int64)
            prid = np.searchsorted(lvl.bounds, cur, side="right") - 1
            cur = lvl.parent_abs[prid]
        if self.config.first_level == "array":
            out[:, 0] = cur  # parent of a level-2 region is v1 itself

    def _decode_pointer_prefix(self, idx: np.ndarray, out: np.ndarray) -> None:
        """Scan right to an empty/barrier cell; its payload is the up-pointer."""
        cur = _scan_up(self.last_cells, idx)
        for t in range(len(self.inter) - 1, -1, -1):
            lvl = self.inter[t]
            col = t if self.config.first_level == "hash" else t + 1
            out[:, col] = (lvl.cells[cur] & PAYLOAD_MASK).astype(np.int64)
            cur = _scan_up(lvl.cells, cur)
        if self.config.first_level == "array":
            out[:, 0] = cur

    # ------------------------------------------------------------------ space
    def memory_units(self) -> int:
        """Units per the paper's model (Figs 3-4): one per stored vertex,
        one per pointer (array slots count as pointers)."""
        if self.config.levels == 1:
            return self.n_cliques * self.r
        units = self.n_cliques * self.suffix_w
        if self.config.first_level == "array":
            units += self.n
        for lvl in self.inter:
            occupied = int(((lvl.cells & EMPTY_BIT) == 0).sum())
            units += occupied * 2  # vertex + pointer per entry
        return units

    def allocated_cells(self) -> int:
        """Actually allocated cells, including empties and barriers."""
        total = self.capacity
        for lvl in self.inter:
            total += len(lvl.cells)
        if self.fl_array is not None:
            total += self.n
        return total


def _region_starts(caps: np.ndarray) -> np.ndarray:
    """Start of each region when regions of ``caps`` cells plus one barrier
    are laid out back to back."""
    return np.cumsum(caps + 1) - (caps + 1)


def _region_cells(caps: np.ndarray, parent_abs: np.ndarray) -> np.ndarray:
    """Cells of back-to-back regions, all empty: every probe-able and
    barrier cell holds its region's up-pointer (0 for a root region)."""
    return EMPTY_BIT | np.repeat(np.maximum(parent_abs, 0).astype(np.uint64), caps + 1)


def _new_prefix(mat: np.ndarray, j: int) -> np.ndarray:
    """Whether each row of a lex-sorted matrix starts a new distinct j-prefix."""
    first = np.ones(len(mat), dtype=bool)
    first[1:] = np.any(mat[1:, :j] != mat[:-1, :j], axis=1)
    return first


def _prefix_inverse(mat: np.ndarray, j: int) -> np.ndarray:
    """Region id (index into sorted distinct j-prefixes) of each sorted row."""
    return np.cumsum(_new_prefix(mat, j)) - 1


def _scan_up(cells: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """For each cell index, scan right to the first empty/barrier cell and
    return its payload (the up-pointer); each pass carries only the
    indices still scanning."""
    out = np.empty(len(idx), dtype=np.int64)
    i = np.arange(len(idx))
    pos = idx + 1
    while len(i):
        vals = cells[pos]
        hit = (vals & EMPTY_BIT) != 0
        out[i[hit]] = (vals[hit] & PAYLOAD_MASK).astype(np.int64)
        i, pos = i[~hit], pos[~hit] + 1
    return out


def make_table(vmat: np.ndarray, n: int, config: TableConfig | None = None) -> CliqueTable:
    """Factory; auto-raises the level count when the key would not fit."""
    config = config or TableConfig()
    r = vmat.shape[1] if vmat.ndim == 2 else 1
    need = min_levels(n, r)
    if config.levels < need:
        config = replace(config, levels=need)
    return CliqueTable(vmat, n, config)
