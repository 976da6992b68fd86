"""Unit tests for counters, histograms, and the registry."""

import pytest

from repro.obs import MetricsRegistry
from repro.sim import NULL_METRICS


def test_counter_increments():
    reg = MetricsRegistry()
    c = reg.counter("pcie.tlps")
    c.inc()
    c.inc(3)
    assert c.value == 4
    assert reg.counter("pcie.tlps") is c  # same instance on re-access


def test_histogram_summary_stats():
    reg = MetricsRegistry()
    h = reg.histogram("polls")
    for v in (1.0, 2.0, 3.0):
        h.observe(v)
    assert h.count == 3
    assert h.mean == pytest.approx(2.0)
    assert h.min == 1.0 and h.max == 3.0


def test_histogram_power_of_two_buckets():
    h = MetricsRegistry().histogram("x")
    # bucket e holds 2**(e-1) < value <= 2**e; exact powers land in their
    # own bucket, one above lands in the next.
    h.observe(4.0)      # e=2
    h.observe(4.0001)   # e=3
    h.observe(0.25)     # e=-2
    h.observe(0.0)      # non-positive: e=0 by convention
    assert h.buckets == {2: 1, 3: 1, -2: 1, 0: 1}


def test_snapshot_and_render():
    reg = MetricsRegistry()
    reg.counter("a").inc(7)
    reg.histogram("b").observe(2.0)
    snap = reg.snapshot()
    assert snap["a"] == 7
    assert snap["b"]["count"] == 1 and snap["b"]["mean"] == pytest.approx(2.0)
    text = reg.render()
    assert "a" in text and "7" in text and "n=1" in text
    reg.clear()
    assert reg.snapshot() == {}
    assert reg.render() == "(no metrics recorded)"


def test_null_metrics_swallow_everything():
    NULL_METRICS.counter("x").inc(10)
    NULL_METRICS.histogram("y").observe(1.0)
    assert NULL_METRICS.snapshot() == {}


def test_histogram_percentile_from_buckets():
    h = MetricsRegistry().histogram("lat")
    for v in (1.0, 2.0, 4.0, 8.0, 16.0):
        h.observe(v)
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 16.0
    # p50 falls in the middle bucket; the octave estimate stays within it.
    assert 2.0 <= h.percentile(50) <= 4.0
    # Estimates are clamped to the observed range and monotone in q.
    qs = [h.percentile(q) for q in (10, 25, 50, 75, 90, 99)]
    assert qs == sorted(qs)
    assert all(1.0 <= v <= 16.0 for v in qs)


def test_histogram_percentile_single_sample_and_bounds():
    h = MetricsRegistry().histogram("one")
    h.observe(3.0)
    for q in (0, 50, 99, 100):
        assert h.percentile(q) == 3.0
    with pytest.raises(ValueError):
        h.percentile(101)
    with pytest.raises(ValueError):
        h.percentile(-1)


def test_empty_histogram_is_json_safe():
    """An empty histogram must never leak min=inf / max=-inf into dumps."""
    import json

    reg = MetricsRegistry()
    reg.histogram("never-observed")
    snap = reg.snapshot()
    assert snap["never-observed"] == {
        "count": 0, "sum": 0.0, "min": None, "max": None, "mean": None,
        "p50": None, "p90": None, "p99": None}
    text = json.dumps(snap)  # would raise / emit Infinity otherwise
    assert "Infinity" not in text
    assert h_is_empty_rendered(reg)
    assert h_percentile_none(reg)


def h_is_empty_rendered(reg):
    return "n=0" in reg.render()


def h_percentile_none(reg):
    return reg.histogram("never-observed").percentile(99) is None


def test_snapshot_includes_percentiles():
    reg = MetricsRegistry()
    h = reg.histogram("polls")
    for v in (1.0, 1.0, 1.0, 1.0, 50.0):
        h.observe(v)
    snap = reg.snapshot()["polls"]
    assert snap["p50"] == 1.0
    assert snap["p99"] == pytest.approx(50.0, rel=0.5)
    assert snap["p50"] <= snap["p90"] <= snap["p99"]


def test_registry_diff_counters_and_histograms():
    reg = MetricsRegistry()
    reg.counter("tlps").inc(5)
    reg.histogram("polls").observe(10.0)
    before = reg.snapshot()

    reg.counter("tlps").inc(3)
    reg.counter("fresh").inc(2)            # created after the snapshot
    reg.histogram("polls").observe(20.0)
    reg.histogram("polls").observe(30.0)

    d = reg.diff(before)
    assert d["tlps"] == 3
    assert d["fresh"] == 2
    assert d["polls"]["count"] == 2
    assert d["polls"]["sum"] == pytest.approx(50.0)
    assert d["polls"]["mean"] == pytest.approx(25.0)
    # No activity since: all deltas go to zero/None.
    d2 = reg.diff(reg.snapshot())
    assert d2["tlps"] == 0 and d2["fresh"] == 0
    assert d2["polls"] == {"count": 0, "sum": pytest.approx(0.0), "mean": None}


def test_diff_supports_shared_registry_across_runs():
    """The bench-harness idiom: one registry shared by sequential runs,
    per-run deltas via snapshot/diff, no clear() in between."""
    reg = MetricsRegistry()
    totals = []
    for run in range(3):
        before = reg.snapshot()
        reg.counter("net.packets").inc(10 * (run + 1))
        totals.append(reg.diff(before)["net.packets"])
    assert totals == [10, 20, 30]
    assert reg.counter("net.packets").value == 60


# -- windowed views (telemetry sampler substrate) -----------------------------------

def test_histogram_state_delta_roundtrip():
    from repro.obs.metrics import Histogram

    h = Histogram("lat")
    for v in (1.0, 2.0, 4.0):
        h.observe(v)
    earlier = h.state()
    for v in (8.0, 9.0):
        h.observe(v)

    window = Histogram.delta("lat", h.state(), earlier)
    assert window.count == 2
    assert window.total == pytest.approx(17.0)
    assert window.mean == pytest.approx(8.5)
    # Both samples sit in the (4, 8] and (8, 16] octaves.
    assert window.percentile(100.0) == 9.0
    # Delta with no earlier state reproduces the whole histogram.
    whole = Histogram.delta("lat", h.state())
    assert whole.count == h.count
    assert whole.percentile(50.0) == pytest.approx(h.percentile(50.0))


def test_histogram_delta_empty_window_and_percentile_edges():
    from repro.obs.metrics import Histogram

    h = Histogram("lat")
    h.observe(10.0)
    s = h.state()
    empty = Histogram.delta("lat", s, s)      # adjacent sampler ticks,
    assert empty.count == 0                   # nothing observed between
    assert empty.percentile(50.0) is None

    h.observe(20.0)
    single = Histogram.delta("lat", h.state(), s)
    assert single.count == 1
    # Single-sample window: every q returns that octave's clamped sample.
    assert single.percentile(0.0) == single.percentile(99.0) \
        == single.percentile(100.0)


def test_histogram_delta_rejects_non_prefix_state():
    from repro.obs.metrics import Histogram

    h = Histogram("lat")
    h.observe(10.0)
    h.observe(10.0)
    later = h.state()
    h2 = Histogram("lat")
    h2.observe(10.0)
    with pytest.raises(ValueError):
        Histogram.delta("lat", h2.state(), later)   # count went backwards


def test_histogram_delta_skips_stale_zero_count_buckets():
    from repro.obs.metrics import Histogram

    h = Histogram("lat")
    h.observe(1.0)       # occupies the low octave...
    earlier = h.state()
    h.observe(100.0)     # ...window only holds the high octave
    h.observe(100.0)
    window = Histogram.delta("lat", h.state(), earlier)
    assert window.count == 2
    # The low octave's delta is zero, so it is absent from the window; the
    # percentile walk must only see the (64, 128] octave.
    assert sorted(window.buckets) == [7]
    assert 64.0 <= window.percentile(99.0) <= 100.0


def test_diff_partitions_counts_across_sampler_windows():
    """The sampler's boundary invariant: consecutive snapshot()/diff()
    windows attribute every count to exactly one window — including counts
    landing exactly ON a snapshot boundary (they belong to the window that
    snapshots after them)."""
    reg = MetricsRegistry()
    windows = []
    expect = [3, 0, 5]
    before = reg.snapshot()
    for n in expect:
        reg.counter("ops").inc(n) if n else None
        snap = reg.snapshot()
        windows.append(reg.diff(before)["ops"])
        before = snap
    assert windows == expect
    assert sum(windows) == reg.counter("ops").value


def test_diff_histogram_windows_partition_observations():
    reg = MetricsRegistry()
    h = reg.histogram("polls")
    per_window = [(1.0, 2.0), (), (4.0, 8.0, 16.0)]
    before = reg.snapshot()
    counts = []
    for values in per_window:
        for v in values:
            h.observe(v)
        snap = reg.snapshot()
        counts.append(reg.diff(before)["polls"]["count"])
        before = snap
    assert counts == [2, 0, 3]
    assert sum(counts) == h.count
