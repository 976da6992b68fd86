"""Sampler tests: tick cadence, source protocols, windowed histograms."""

import pytest

from repro.errors import ConfigError
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.telemetry import Sampler


class FakeStats:
    """Minimal snapshot()/diff() stats source with one gauge."""

    GAUGES = ("depth",)

    def __init__(self):
        self.total = 0
        self.depth = 0

    def snapshot(self):
        return {"total": self.total, "depth": self.depth}

    def diff(self, earlier):
        return {"total": self.total - earlier["total"], "depth": self.depth}


def test_ticks_at_fixed_cadence_and_records_event_deltas():
    sim = Simulator()
    sampler = Sampler(sim, interval=1e-6)
    sampler.start()
    sim.run(until=10.5e-6)
    assert sampler.ticks == 10
    assert list(sampler.tick_times) == pytest.approx(
        [k * 1e-6 for k in range(1, 11)])
    events = sampler.series("sim.events")
    assert events is not None and events.kind == "counter"
    # Every processed event is attributed to exactly one window.
    assert events.total() == sim.events_processed


def test_watch_stats_splits_counters_from_gauges():
    sim = Simulator()
    stats = FakeStats()
    sampler = Sampler(sim, interval=1e-6)
    sampler.watch_stats("eng", stats)

    def bump(total, depth):
        stats.total += total
        stats.depth = depth

    sim.call_later(0.5e-6, lambda: bump(3, 2))
    sim.call_later(2.5e-6, lambda: bump(4, 1))
    sampler.start()
    sim.run(until=4.5e-6)

    counters = sampler.series("eng.total")
    gauges = sampler.series("eng.depth")
    assert counters.kind == "counter" and gauges.kind == "gauge"
    # First tick snapshots absolutes, later ticks record deltas; the sum
    # still reconstructs the final total.
    assert counters.total() == stats.total == 7
    assert [p.value for p in counters.points()] == [3, 0, 4, 0]
    assert gauges.last.value == 1
    assert [p.value for p in gauges.points() if p.time <= 1e-6][-1] == 2


def test_watch_counters_diffs_consecutive_reads():
    sim = Simulator()
    state = {"bytes": 0}
    sampler = Sampler(sim, interval=1e-6)
    sampler.watch_counters("net", lambda: dict(state))
    for k in (1, 2, 3):
        sim.call_later(k * 1e-6 - 0.5e-6,
                       (lambda kk=k: state.__setitem__("bytes", 100 * kk)))
    sampler.start()
    sim.run(until=3.5e-6)
    series = sampler.series("net.bytes")
    assert [p.value for p in series.points()] == [100, 100, 100]
    assert series.total() == state["bytes"]


def test_watch_gauge_samples_levels():
    sim = Simulator()
    sampler = Sampler(sim, interval=1e-6)
    sampler.watch_gauge("queue.depth", lambda: sim.now * 1e6)
    sampler.start()
    sim.run(until=3.5e-6)
    series = sampler.series("queue.depth")
    assert series.kind == "gauge"
    assert [p.value for p in series.points()] == pytest.approx([1, 2, 3])


def test_window_histogram_reconstructs_per_window_distributions():
    """Samples observed between ticks k and k+1 belong to the window
    ``(t_k, t_{k+1}]`` — differencing retained states must honour that."""
    sim = Simulator()
    registry = MetricsRegistry()
    sampler = Sampler(sim, interval=1e-6)
    sampler.watch_registry(registry)
    hist = registry.histogram("lat")
    sim.call_later(0.5e-6, lambda: hist.observe(10.0))   # window 1
    sim.call_later(1.5e-6, lambda: hist.observe(20.0))   # window 2
    sim.call_later(1.7e-6, lambda: hist.observe(21.0))   # window 2
    sampler.start()
    sim.run(until=3.5e-6)

    assert sampler.histogram_names() == ["lat"]
    w1 = sampler.window_histogram("lat", 0.0, 1e-6)
    w2 = sampler.window_histogram("lat", 1e-6, 2e-6)
    w3 = sampler.window_histogram("lat", 2e-6, 3e-6)
    assert (w1.count, w2.count, w3.count) == (1, 2, 0)
    assert w1.min == w1.max == 10.0
    # Window min/max are octave estimates clamped to live extremes: 20 and
    # 21 share the (16, 32] bucket, so the window min reads as 16.
    assert w2.max == 21.0 and 10.0 <= w2.min <= 20.0
    # Whole-history percentile goes through the one shared implementation.
    assert sampler.percentile("lat", 0.0) == 10.0
    assert sampler.percentile("lat", 100.0) == 21.0
    # Percentile restricted to window 2 only sees window 2.
    assert w2.percentile(100.0) == 21.0


def test_window_histogram_unknown_or_future_window():
    sim = Simulator()
    registry = MetricsRegistry()
    sampler = Sampler(sim, interval=1e-6)
    sampler.watch_registry(registry)
    registry.histogram("lat").observe(1.0)
    sampler.start()
    sim.run(until=1.5e-6)
    assert sampler.window_histogram("nope", 0.0, 1e-6) is None
    # No retained state at or before w1 yet -> None, not an empty guess.
    assert sampler.window_histogram("lat", -2e-6, 0.5e-6) is None


def test_stop_disarms_and_heap_drains():
    sim = Simulator()
    sampler = Sampler(sim, interval=1e-6)
    sampler.start()
    sim.run(until=2.5e-6)
    assert sampler.ticks == 2
    sampler.stop()
    sim.run()          # pending tick fires as a no-op; schedule drains
    assert sampler.ticks == 2


def test_on_tick_hook_sees_every_sample():
    sim = Simulator()
    sampler = Sampler(sim, interval=1e-6)
    seen = []
    sampler.on_tick.append(lambda s, t: seen.append(t))
    sampler.start()
    sim.run(until=3.5e-6)
    assert seen == pytest.approx([1e-6, 2e-6, 3e-6])


def test_bad_interval_rejected():
    with pytest.raises(ConfigError):
        Sampler(Simulator(), interval=0.0)
