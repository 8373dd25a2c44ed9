"""Frontier bucketing: each extraction is the minimum bucket with values
clamped at the current level, checked on hand-made cases and against a
brute-force reference over random update scripts."""
import numpy as np
import pytest

from repro.bucketing import Bucketing


def test_extracts_in_order():
    ids = np.arange(6)
    vals = np.array([3, 1, 4, 1, 5, 9])
    b = Bucketing(ids, vals)
    got = []
    while not b.empty():
        k, a = b.next_bucket()
        got.append((k, sorted(a.tolist())))
    assert got == [(1, [1, 3]), (3, [0]), (4, [2]), (5, [4]), (9, [5])]


def test_update_moves_bucket():
    b = Bucketing(np.arange(3), np.array([5, 5, 10]))
    k, a = b.next_bucket()
    assert k == 5 and sorted(a.tolist()) == [0, 1]
    b.update(np.array([2]), np.array([6]))
    k, a = b.next_bucket()
    assert k == 6 and a.tolist() == [2]


def test_update_clamps_at_current_level():
    b = Bucketing(np.arange(3), np.array([2, 5, 5]))
    k, _ = b.next_bucket()
    assert k == 2
    b.update(np.array([1]), np.array([0]))  # below current level -> clamped
    k, a = b.next_bucket()
    assert k == 2 and a.tolist() == [1]


def test_dead_ids_ignored_on_update():
    b = Bucketing(np.arange(2), np.array([1, 2]))
    _, a = b.next_bucket()
    b.update(a, np.array([7] * len(a)))  # updating peeled ids is a no-op
    k, a2 = b.next_bucket()
    assert k == 2 and a2.tolist() == [1]
    assert b.empty()


def test_skips_empty_ranges():
    vals = np.array([0, 1_000_000])
    b = Bucketing(np.arange(2), vals)
    assert b.next_bucket()[0] == 0
    assert b.next_bucket()[0] == 1_000_000
    assert b.rematerializations <= 3, "must jump the empty range, not scan it"


def test_repeated_updates_single_extraction():
    b = Bucketing(np.arange(2), np.array([1, 9]))
    b.next_bucket()
    for v in [8, 7, 6, 5]:
        b.update(np.array([1]), np.array([v]))
    k, a = b.next_bucket()
    assert k == 5 and a.tolist() == [1]
    assert b.empty()


def test_sparse_ids():
    ids = np.array([10, 500, 900])
    b = Bucketing(ids, np.array([2, 1, 2]))
    assert b.next_bucket()[1].tolist() == [500]
    assert sorted(b.next_bucket()[1].tolist()) == [10, 900]


def test_empty_structure():
    b = Bucketing(np.empty(0, np.int64), np.empty(0, np.int64))
    assert b.empty()
    with pytest.raises(RuntimeError):
        b.next_bucket()


def test_window_advance_past_open_buckets():
    n = 50
    b = Bucketing(np.arange(n), np.arange(n) * 3)  # one level rise per extraction
    ks = []
    while not b.empty():
        k, a = b.next_bucket()
        ks.append(k)
        assert len(a) == 1
    assert ks == [i * 3 for i in range(n)]


class _MinClampedBucket:
    """Brute force: every extraction scans all live ids for the minimum."""

    def __init__(self, ids, values):
        self.value = dict(zip(ids.tolist(), values.tolist()))
        self.k = 0

    def next_bucket(self):
        self.k = max(self.k, min(self.value.values()))
        out = sorted(i for i, v in self.value.items() if v <= self.k)
        for i in out:
            del self.value[i]
        return self.k, out

    def update(self, ids, values):
        for i, v in zip(ids.tolist(), values.tolist()):
            if i in self.value:
                self.value[i] = v


def test_matches_min_clamped_bucket_on_random_scripts():
    """Sparse ids; several updates a round, each with distinct ids, also
    before the first extraction; values lowered to the level and raised
    again; updates of peeled ids."""
    for seed in range(300):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 40))
        ids = np.sort(g.choice(1000, n, replace=False))
        values = g.integers(0, 12, n)
        b, ref = Bucketing(ids, values), _MinClampedBucket(ids, values)
        while ref.value:
            for _ in range(int(g.integers(0, 4))):
                u = g.choice(ids, int(g.integers(0, n + 1)), replace=False)
                v = ref.k + g.integers(-3, 8, len(u))
                b.update(u, v)
                ref.update(u, v)
            u = g.choice(ids, 1)  # lowered to the level, then raised past it
            for v in (ref.k - 1, ref.k + 1 + int(g.integers(0, 3))):
                b.update(u, np.array([v]))
                ref.update(u, np.array([v]))
            if ref.value:
                k, a = b.next_bucket()
                assert (k, a.tolist()) == ref.next_bucket()
        assert b.empty()
        with pytest.raises(RuntimeError):
            b.next_bucket()
