"""Julienne-style bucketing structure."""
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
    b = Bucketing(np.arange(n), np.arange(n) * 3)  # spread well past NUM_OPEN
    ks = []
    while not b.empty():
        k, a = b.next_bucket()
        ks.append(k)
        assert len(a) == 1
    assert ks == [i * 3 for i in range(n)]
