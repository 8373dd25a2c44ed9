"""Update aggregation: one U for every §5.5 kind, and the contention model."""
import numpy as np
import pytest

from repro.aggregation import KINDS, contention, make_aggregator
from repro.graphs.gen import surrogate
from repro.nucleus import decomp
from repro.nucleus.decomp import DecompConfig, nucleus_decomposition
from repro.tables.clique_table import TableConfig


@pytest.mark.parametrize("kind", KINDS)
def test_drain_returns_unique_sorted(kind):
    a = make_aggregator(kind, 100)
    a.begin_round(5, 3)
    a.record(np.array([7, 3, 7, 9]))
    a.record(np.array([3, 11]))
    out = a.drain()
    assert out.tolist() == [3, 7, 9, 11]
    assert out.dtype == np.int64


@pytest.mark.parametrize("kind", KINDS)
def test_round_stamps_reset(kind):
    """Each round starts empty."""
    a = make_aggregator(kind, 100)
    a.begin_round(1, 1)
    a.record(np.array([5]))
    a.drain()
    a.begin_round(1, 1)
    a.record(np.array([5, 6]))
    assert a.drain().tolist() == [5, 6], "round 0's ids must not mask or leak into round 1"
    a.begin_round(1, 1)
    assert a.drain().tolist() == []


def test_all_kinds_agree():
    g = np.random.default_rng(0)
    aggs = [make_aggregator(k, 1000) for k in KINDS]
    for _ in range(5):
        batches = [g.integers(0, 1000, 50) for _ in range(4)]
        outs = []
        for a in aggs:
            a.begin_round(10, 3)
            for b in batches:
                a.record(b)
            outs.append(a.drain().tolist())
        assert outs[0] == outs[1] == outs[2]


def test_drain_adds_the_rounds_contention():
    a = make_aggregator("hash", 100)
    a.begin_round(10, 3)
    a.record(np.array([4, 4, 8]))
    a.drain()
    a.begin_round(2, 1)
    a.drain()
    assert (a.serialized_ops, a.clear_work) == (0, min(60, 100) + 4)
    b = make_aggregator("array", 100)
    b.begin_round(10, 3)
    b.record(np.array([4, 4, 8]))
    b.drain()
    assert (b.serialized_ops, b.clear_work) == (2, 0)


def test_simple_array_serializes_every_insert():
    assert contention("array", 60, 10, 3, 100) == (60, 0)


def test_list_buffer_serializes_only_block_reservations():
    # 60 threads each start with one pre-assigned block of 64 slots
    assert contention("list-buffer", 64 * 60, 10, 3, 10_000) == (0, 64 * 60)
    assert contention("list-buffer", 64 * 60 + 1, 10, 3, 10_000) == (1, 64 * 60 + 1)
    ser, clear = contention("list-buffer", 10_000, 10, 3, 100_000)
    assert ser == -(-10_000 // 64) - 60 == 97
    assert 0 < ser < 10_000 / 64 + 1
    assert clear == 10_000  # filtering unused slots before U is returned


def test_hash_table_no_serialization_but_clear_work():
    assert contention("hash", 60, 10, 3, 100) == (0, 60)
    assert contention("hash", 60, 10, 3, 50) == (0, 50), "clear work is capped by the n_r ids U can hold"
    assert contention("hash", 0, 0, 3, 100) == (0, 2), "a table has at least 2 cells"


def test_contention_ordering_matches_paper():
    """§5.5: simple array worst contention; hash table none."""
    arr, lb, ht = (contention(k, 5000, 100, 3, 10_000)[0] for k in KINDS)
    assert arr > lb >= ht == 0
    arr, lb, ht = (contention(k, 5, 100, 3, 10_000)[0] for k in KINDS)
    assert arr > lb == ht == 0


def test_unknown_kind():
    with pytest.raises(ValueError, match="aggregation"):
        make_aggregator("bogus", 10)
    with pytest.raises(ValueError, match="aggregation"):
        contention("bogus", 1, 1, 1, 10)


def test_unknown_kind_fails_before_any_work(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("work started before the aggregation kind was checked")

    monkeypatch.setattr(decomp, "build_csr", never)
    monkeypatch.setattr(decomp, "s_counts_per_r_clique", never)
    edges = np.array([[0, 1], [1, 2], [0, 2]])
    with pytest.raises(ValueError, match="aggregation"):
        nucleus_decomposition(edges, 2, 3, DecompConfig(aggregation="bogus"))


# (counters.work, counters.serialized_ops): the work includes the clique
# kernel's candidates gathered and pairs probed, and serialized_ops is what
# the former per-insertion accounting gave; they feed every sim_* column
# of T3 and T6a. Hash's clear work is capped by the n_r ids U can hold, at
# every r, whatever T's layout.
PINNED = {
    ("amazon-lite", 3, 4): {"array": (90740, 1991), "list-buffer": (92731, 0), "hash": (129118, 0)},
    ("skitter-lite", 2, 3): {"array": (584265, 5519), "list-buffer": (589784, 0), "hash": (682256, 0)},
}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name,r,s", list(PINNED))
def test_model_inputs_pinned(name, r, s, kind):
    cfg = DecompConfig(table=TableConfig(2, "array", True, "pointer"), aggregation=kind)
    c = nucleus_decomposition(surrogate(name), r, s, cfg).counters
    assert (c.work, c.serialized_ops) == PINNED[(name, r, s)][kind]
