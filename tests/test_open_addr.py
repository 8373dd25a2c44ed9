"""Open-addressing primitive: insert/find over shared-array regions."""
import numpy as np
import pytest

from repro.tables.clique_table import _Level
from repro.tables.open_addr import (
    EMPTY_BIT,
    FIB,
    capacity_for,
    home,
    insert,
    region_find,
)


def insert_one_region(cells, start, cap, keys):
    """Insert keys into the single region [start, start + cap)."""
    pos, _ = insert(cells, np.full(len(keys), start), np.full(len(keys), cap), keys)
    return pos


def test_capacity_always_leaves_empty():
    for c in [0, 1, 5, 100]:
        assert capacity_for(c) > c


@pytest.mark.parametrize("cap", [2, 3, 1000, 2**20, 2**32 - 1])
def test_home_in_range_and_spread(cap):
    x = np.arange(1000, dtype=np.uint64)
    h = home(x, cap)
    assert np.array_equal(h, home(x, np.full(1000, cap)))
    assert h.min() >= 0 and h.max() < cap
    assert len(np.unique(h)) >= 0.8 * min(cap, 1000)
    if cap & (cap - 1) == 0:  # 2^b: the top b bits of key * FIB, the arc-set layout
        b = cap.bit_length() - 1
        y = np.random.default_rng(b).integers(0, 2**63, 1000).astype(np.uint64)
        assert np.array_equal(home(y, cap), ((y * FIB) >> np.uint64(64 - b)).astype(np.int64))


def test_capacity_of_2_pow_32_is_rejected():
    cells = np.full(4, EMPTY_BIT, dtype=np.uint64)
    with pytest.raises(ValueError, match="below 2\\^32"):
        insert(cells, np.array([0]), np.array([2**32]), np.array([1], np.uint64))
    assert (cells == EMPTY_BIT).all()


def test_insert_find_single_region():
    keys = np.arange(100, dtype=np.uint64)
    cap = capacity_for(100)
    cells = np.full(cap + 1, EMPTY_BIT, dtype=np.uint64)
    pos = insert_one_region(cells, 0, cap, keys)
    found = region_find(
        cells, np.zeros(100, np.int64), np.full(100, cap), keys
    )
    assert np.array_equal(found, pos)


def test_find_missing_returns_minus_one():
    keys = np.array([5, 9], dtype=np.uint64)
    cap = capacity_for(2)
    cells = np.full(cap + 1, EMPTY_BIT, dtype=np.uint64)
    insert_one_region(cells, 0, cap, keys)
    q = np.array([5, 7, 9, 100], dtype=np.uint64)
    out = region_find(cells, np.zeros(4, np.int64), np.full(4, cap), q)
    assert out[1] == -1 and out[3] == -1
    assert out[0] >= 0 and out[2] >= 0


def test_multiple_regions_shared_array():
    capA, capB = capacity_for(3), capacity_for(4)
    cells = np.full(capA + 1 + capB + 1, EMPTY_BIT, dtype=np.uint64)
    a_keys = np.array([1, 2, 3], dtype=np.uint64)
    b_keys = np.array([1, 2, 3, 4], dtype=np.uint64)  # same keys, other region
    pa = insert_one_region(cells, 0, capA, a_keys)
    pb = insert_one_region(cells, capA + 1, capB, b_keys)
    assert (pa < capA).all() and (pb >= capA + 1).all()
    starts = np.array([0] * 3 + [capA + 1] * 4, dtype=np.int64)
    caps = np.array([capA] * 3 + [capB] * 4, dtype=np.int64)
    q = np.concatenate([a_keys, b_keys])
    out = region_find(cells, starts, caps, q)
    assert np.array_equal(out, np.concatenate([pa, pb]))


def test_negative_start_is_not_found():
    """A negative region (no such region) is not found; its key is."""
    lvl = _Level(np.array([1]), np.array([-1]))
    pos, _ = insert(lvl.cells, lvl.starts, lvl.caps, np.array([1], np.uint64))
    out = lvl.find(np.array([-1, 0]), np.array([1, 1], np.uint64))
    assert out[0] == -1 and out[1] == pos[0]


def test_high_load_probing():
    g = np.random.default_rng(3)
    keys = np.unique(g.integers(0, 1 << 40, 500).astype(np.uint64))
    cap = len(keys) + 1  # load just under 1
    cells = np.full(cap + 1, EMPTY_BIT, dtype=np.uint64)
    pos = insert_one_region(cells, 0, cap, keys)
    out = region_find(
        cells, np.zeros(len(keys), np.int64), np.full(len(keys), cap), keys
    )
    assert np.array_equal(out, pos)


def test_batched_insert_many_regions():
    """One call fills many regions: the same keys recur in different
    regions and one region sits at load just under 1."""
    g = np.random.default_rng(5)
    counts = np.array([1, 7, 0, 40, 3, 40, 120, 2])
    caps = capacity_for(counts)
    caps[6] = counts[6] + 1  # load just under 1
    starts = np.cumsum(caps + 1) - (caps + 1)
    region = np.repeat(np.arange(len(counts)), counts)
    keys = np.concatenate([g.choice(1 << 12, c, replace=False) for c in counts]).astype(np.uint64)
    keys[region == 5] = keys[region == 3]  # same keys in another region

    def build():
        cells = np.full(int(caps.sum() + len(caps)), EMPTY_BIT, dtype=np.uint64)
        pos, max_probe = insert(cells, starts[region], caps[region], keys)
        return cells, pos, max_probe

    cells, pos, max_probe = build()
    s, c = starts[region], caps[region]
    assert ((pos >= s) & (pos < s + c)).all()
    assert np.array_equal(cells[pos], keys)
    assert np.array_equal(region_find(cells, s, c, keys), pos)
    off = home(keys, c)
    dist = (pos - s - off) % c
    assert max_probe == dist.max()
    # every cell is empty on the first pass, so the lowest key index homed
    # at a cell claims it
    _, lowest = np.unique(s + off, return_index=True)
    assert (dist[lowest] == 0).all()
    for h, d, st, cp in zip(off, dist, s, c):  # the probe run is all occupied
        run = st + (h + np.arange(d + 1)) % cp
        assert not (cells[run] & EMPTY_BIT).any()
    assert (cells[starts + caps] & EMPTY_BIT).all(), "barriers stay empty"
    again, pos2, _ = build()
    assert np.array_equal(again, cells) and np.array_equal(pos2, pos)
