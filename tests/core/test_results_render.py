"""Unit tests for result containers and table rendering."""

import math

import pytest

from repro.core import (
    BandwidthPoint,
    CounterReport,
    LatencyPoint,
    RatePoint,
    Series,
    render_bandwidth_table,
    render_counter_table,
    render_latency_table,
    render_rate_table,
)
from repro.gpu import CounterSet
from repro.units import KIB


def test_latency_point_units_and_ratio():
    p = LatencyPoint(size=64, latency=5e-6, post_time=1e-6, poll_time=4e-6)
    assert p.latency_us == pytest.approx(5.0)
    assert p.poll_to_post_ratio == pytest.approx(4.0)


def test_latency_point_ratio_nan_when_neither_phase_measured():
    p = LatencyPoint(size=64, latency=5e-6)
    assert math.isnan(p.poll_to_post_ratio)


def test_latency_point_ratio_inf_when_only_polling_measured():
    # Polling took time but no posting time was recorded: the ratio is
    # unbounded, not undefined (and must not raise ZeroDivisionError).
    p = LatencyPoint(size=64, latency=5e-6, post_time=0.0, poll_time=3e-6)
    assert p.poll_to_post_ratio == float("inf")


def test_latency_point_ratio_negative_post_time_treated_as_unmeasured():
    p = LatencyPoint(size=64, latency=5e-6, post_time=-1e-9, poll_time=3e-6)
    assert p.poll_to_post_ratio == float("inf")
    p = LatencyPoint(size=64, latency=5e-6, post_time=-1e-9, poll_time=0.0)
    assert math.isnan(p.poll_to_post_ratio)


def test_bandwidth_point_rate():
    p = BandwidthPoint(size=1024, bytes_moved=10_000_000, elapsed=0.01)
    assert p.mb_per_s == pytest.approx(1000.0)


def test_rate_point():
    p = RatePoint(connections=4, messages=400, elapsed=0.001)
    assert p.messages_per_s == pytest.approx(400_000)


def test_series_by_x_uses_size_or_connections():
    s = Series("x", [LatencyPoint(size=64, latency=1e-6)])
    assert 64 in s.by_x()
    r = Series("y", [RatePoint(connections=8, messages=1, elapsed=1.0)])
    assert 8 in r.by_x()


def test_render_latency_table_contains_all_cells():
    s1 = Series("modeA", [LatencyPoint(size=64, latency=2e-6),
                          LatencyPoint(size=1 * KIB, latency=4e-6)])
    s2 = Series("modeB", [LatencyPoint(size=64, latency=3e-6)])
    text = render_latency_table([s1, s2], "My Title")
    assert "My Title" in text
    assert "64B" in text and "1KiB" in text
    assert "2.00us" in text and "4.00us" in text and "3.00us" in text
    assert "-" in text  # missing modeB @ 1KiB


def test_render_bandwidth_table():
    s = Series("m", [BandwidthPoint(size=1024, bytes_moved=10**7, elapsed=0.01)])
    text = render_bandwidth_table([s], "BW")
    assert "1000.0MB/s" in text


def test_render_rate_table():
    s = Series("m", [RatePoint(connections=4, messages=400, elapsed=0.001)])
    text = render_rate_table([s], "Rate")
    assert "400,000/s" in text


def test_render_counter_table_matches_paper_layout():
    counters = CounterSet(sysmem_read_transactions=4368,
                          instructions_executed=46413)
    report = CounterReport("system memory", 100, counters)
    text = render_counter_table([report], "Table I")
    assert "sysmem reads (32B accesses)" in text
    assert "4,368" in text
    assert "instruction executed" in text
    assert "46,413" in text


def test_counter_set_arithmetic():
    a = CounterSet(instructions_executed=10, l2_read_hits=5)
    b = CounterSet(instructions_executed=3, l2_read_hits=1)
    assert (a + b).instructions_executed == 13
    assert a.diff(b).l2_read_hits == 4
    snap = a.snapshot()
    a.instructions_executed += 100
    assert snap.instructions_executed == 10
    a.reset()
    assert a.instructions_executed == 0
