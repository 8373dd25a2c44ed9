"""Work-span cost model."""
import pytest

from repro.instrument import Counters, self_relative_speedup, simulated_time


def test_brent_bound_shape():
    c = Counters(work=1000, span_logs=10)
    assert simulated_time(c, 1) == 1010
    assert simulated_time(c, 10) == 110


def test_speedup_monotone_in_p():
    c = Counters(work=100_000, span_logs=50)
    sp = [self_relative_speedup(c, p) for p in [1, 2, 4, 8, 16, 32, 60]]
    assert sp[0] == 1.0
    assert all(b >= a for a, b in zip(sp, sp[1:]))


def test_speedup_saturates_at_span():
    c = Counters(work=1000, span_logs=1000)  # span-bound
    assert self_relative_speedup(c, 60) < 2.5


def test_serialized_ops_hurt_scalability():
    free = Counters(work=100_000, span_logs=10)
    contended = Counters(work=100_000, span_logs=10, serialized_ops=5_000)
    assert self_relative_speedup(contended, 60) < self_relative_speedup(free, 60)
