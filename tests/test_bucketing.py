"""Frontier bucketing: each extraction takes every live id at or below
the level k, which rises to the minimum live count only when no id is;
the caller lowers ``count`` in place and reports the lowered ids through
``update``. Checked on hand-made cases and against a brute-force
min-count peel over random scripts that only lower counts."""
import numpy as np
import pytest

from repro.bucketing import Bucketing


def lower(b, ids, by=1):
    """Lower the counts of the distinct ``ids`` by ``by`` and report them."""
    ids = np.asarray(ids, dtype=np.int64)
    b.count[ids] -= by
    b.update(ids)


def test_extracts_in_order():
    vals = np.array([3, 1, 4, 1, 5, 9])
    b = Bucketing(vals)
    got = []
    while not b.empty():
        k, a = b.next_bucket()
        got.append((k, sorted(a.tolist())))
    assert got == [(1, [1, 3]), (3, [0]), (4, [2]), (5, [4]), (9, [5])]


def test_update_moves_bucket():
    b = Bucketing(np.array([5, 5, 10]))
    k, a = b.next_bucket()
    assert k == 5 and sorted(a.tolist()) == [0, 1]
    lower(b, [2], 4)
    k, a = b.next_bucket()
    assert k == 6 and a.tolist() == [2]
    assert b.levels == [5, 6] and b.round.tolist() == [0, 0, 1]


def test_update_clamps_at_current_level():
    b = Bucketing(np.array([2, 5, 5]))
    k, _ = b.next_bucket()
    assert k == 2
    lower(b, [1], 5)  # below the current level: peeled at it
    k, a = b.next_bucket()
    assert k == 2 and a.tolist() == [1]
    assert b.count[1] == 0 and b.levels == [2, 2]


def test_dead_ids_ignored_on_update():
    b = Bucketing(np.array([1, 2]))
    _, a = b.next_bucket()
    lower(b, a)  # peeled ids at or below k again: not extracted again
    k, a2 = b.next_bucket()
    assert k == 2 and a2.tolist() == [1]
    assert b.empty()
    assert b.round.tolist() == [0, 1] and b.bucket_moves == 0


def test_skips_empty_ranges():
    vals = np.array([0, 1_000_000])
    b = Bucketing(vals)
    assert b.next_bucket()[0] == 0
    assert b.next_bucket()[0] == 1_000_000
    assert b.rematerializations <= 3, "must jump the empty range, not scan it"


def test_repeated_updates_single_extraction():
    b = Bucketing(np.array([1, 9]))
    b.next_bucket()
    for _ in range(4):
        lower(b, [1])
    k, a = b.next_bucket()
    assert k == 5 and a.tolist() == [1]
    assert b.empty()
    assert b.bucket_moves == 4


def test_empty_structure():
    b = Bucketing(np.empty(0, np.int64))
    assert b.empty()
    with pytest.raises(RuntimeError):
        b.next_bucket()


def test_window_advance_past_open_buckets():
    n = 50
    b = Bucketing(np.arange(n) * 3)  # one level rise per extraction
    ks = []
    while not b.empty():
        k, a = b.next_bucket()
        ks.append(k)
        assert len(a) == 1
    assert ks == [i * 3 for i in range(n)]


class _MinCountPeel:
    """Brute force: every extraction scans all live ids for the minimum."""

    def __init__(self, ids, counts):
        self.count = dict(zip(ids.tolist(), counts.tolist()))
        self.core = {}
        self.k = 0
        self.rises = 0  # extractions that found no live id at or below k
        self.lowered = 0  # live ids whose count was lowered

    def next_bucket(self):
        if min(self.count.values()) > self.k:
            self.k = min(self.count.values())
            self.rises += 1
        out = sorted(i for i, c in self.count.items() if c <= self.k)
        for i in out:
            del self.count[i]
            self.core[i] = self.k
        return self.k, out

    def lower(self, ids, by):
        for i, d in zip(ids.tolist(), by.tolist()):
            if i in self.count:
                self.count[i] -= d
                self.lowered += 1


def test_matches_min_clamped_bucket_on_random_scripts():
    """Dense ids 0..n-1; counts only lowered, some below the level; several
    updates a round, each with distinct ids, also before the first
    extraction; updates that name peeled ids. Round stamps run 0..rho-1
    in extraction order and each id's core is the level of its round."""
    for seed in range(300):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 40))
        ids = np.arange(n)
        counts = g.integers(0, 12, n)
        b, ref = Bucketing(counts), _MinCountPeel(ids, counts)
        rounds = 0
        while ref.count:
            for _ in range(int(g.integers(0, 4))):
                u = g.choice(ids, int(g.integers(0, n + 1)), replace=False)
                by = g.integers(1, 6, len(u))
                lower(b, u, by)
                ref.lower(u, by)
            k, a = b.next_bucket()
            assert (k, a.tolist()) == ref.next_bucket()
            assert (b.round[a] == rounds).all() and b.levels[rounds] == k
            rounds += 1
        assert b.empty() and len(b.levels) == rounds
        assert sorted(set(b.round[ids].tolist())) == list(range(rounds))
        core = np.array(b.levels)[b.round[ids]]
        assert core.tolist() == [ref.core[i] for i in ids.tolist()]
        assert b.rematerializations == ref.rises
        assert b.bucket_moves == ref.lowered
        with pytest.raises(RuntimeError):
            b.next_bucket()
