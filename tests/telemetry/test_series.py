"""Unit tests for ring-buffered time series and their window semantics."""

import pytest

from repro.telemetry import Series, SeriesBank


def test_counter_series_totals_and_rate():
    s = Series("msgs", "counter")
    for t, v in ((1.0, 10), (2.0, 20), (3.0, 30)):
        s.append(t, v)
    assert s.total() == 60
    assert s.rate(0.0, 3.0) == pytest.approx(20.0)
    assert s.rate(1.0, 3.0) == pytest.approx(25.0)   # excludes the t=1 point


def test_window_is_half_open_on_the_left():
    """A sample stamped t covers (t - interval, t]: window(w0, w1) takes
    strictly-after w0, up to AND INCLUDING w1 — the sampler boundary."""
    s = Series("x", "counter")
    for t in (1.0, 2.0, 3.0, 4.0):
        s.append(t, 1)
    assert [p.time for p in s.window(1.0, 3.0)] == [2.0, 3.0]
    assert [p.time for p in s.window(0.0, 1.0)] == [1.0]
    assert s.window(3.0, 3.0) == []              # degenerate window: empty
    assert [p.time for p in s.window(3.5, 10.0)] == [4.0]


def test_adjacent_windows_partition_the_points():
    """Consecutive sampler windows (w, w+i] must cover every point exactly
    once — the off-by-one the boundary convention exists to prevent."""
    s = Series("x", "counter")
    times = [0.5 * k for k in range(1, 21)]
    for t in times:
        s.append(t, 1)
    edges = [0.0, 2.5, 5.0, 7.5, 10.0]
    seen = []
    for w0, w1 in zip(edges, edges[1:]):
        seen.extend(p.time for p in s.window(w0, w1))
    assert seen == times


def test_ring_eviction_keeps_the_newest():
    s = Series("x", "gauge", capacity=3)
    for t in range(10):
        s.append(float(t), t)
    assert len(s) == 3
    assert [p.value for p in s.points()] == [7, 8, 9]
    assert s.capacity == 3


def test_time_must_not_go_backwards():
    s = Series("x", "counter")
    s.append(2.0, 1)
    with pytest.raises(ValueError):
        s.append(1.0, 1)


def test_bad_kind_and_capacity_rejected():
    with pytest.raises(ValueError):
        Series("x", "rate")
    with pytest.raises(ValueError):
        Series("x", "counter", capacity=0)


def test_bank_creates_on_first_use_and_pins_kind():
    bank = SeriesBank(capacity=16)
    s = bank.series("a", "counter")
    assert bank.series("a", "counter") is s
    with pytest.raises(ValueError):
        bank.series("a", "gauge")
    bank.record("b", "gauge", 1.0, 2.0)
    assert bank.get("b").last.value == 2.0
    assert bank.names() == ["a", "b"]
    assert len(bank) == 2
