"""Unit tests for the hierarchical span tracer."""

import pytest

import json

from repro.obs import NULL_SPAN, SpanTracer, write_chrome_trace
from repro.sim import Simulator, set_default_tracer


class FakeClock:
    """Minimal stand-in for a simulator: just a settable ``now``."""

    def __init__(self):
        self.now = 0.0


def test_span_records_begin_end_and_duration():
    clock = FakeClock()
    trc = SpanTracer(sim=clock)
    span = trc.begin("cat", "work", track="t0", bytes=64)
    clock.now = 2.5
    span.end(status="done")
    assert len(trc.spans) == 1
    rec = trc.spans[0]
    assert rec.begin == 0.0 and rec.end == 2.5
    assert rec.duration == pytest.approx(2.5)
    assert rec.attrs == {"bytes": 64, "status": "done"}
    assert rec.track == "t0" and rec.depth == 0 and rec.parent_id is None


def test_span_nesting_sets_parent_and_depth():
    clock = FakeClock()
    trc = SpanTracer(sim=clock)
    outer = trc.begin("cat", "outer", track="t")
    clock.now = 1.0
    inner = trc.begin("cat", "inner", track="t")
    clock.now = 2.0
    inner.end()
    clock.now = 3.0
    outer.end()

    inner_rec = trc.spans_named("inner")[0]
    outer_rec = trc.spans_named("outer")[0]
    assert inner_rec.parent_id == outer_rec.span_id
    assert inner_rec.depth == 1 and outer_rec.depth == 0


def test_tracks_are_independent_stacks():
    clock = FakeClock()
    trc = SpanTracer(sim=clock)
    a = trc.begin("cat", "a", track="row0")
    b = trc.begin("cat", "b", track="row1")
    # b is NOT a child of a — different track, different stack.
    assert b.parent_id is None and b.depth == 0
    b.end()
    a.end()
    assert trc.tracks() == ["row0", "row1"]


def test_category_filter_returns_null_span_and_reparents():
    clock = FakeClock()
    trc = SpanTracer(sim=clock, categories={"keep"})
    outer = trc.begin("keep", "outer")
    skipped = trc.begin("drop", "skipped")
    assert skipped is NULL_SPAN
    inner = trc.begin("keep", "inner")
    # The filtered-out middle span never joined the stack, so ``inner``
    # parents to ``outer`` directly.
    assert inner.parent_id == outer.span_id
    inner.end()
    skipped.end()  # no-op
    outer.end()
    assert [s.name for s in trc.spans] == ["inner", "outer"]


def test_context_manager_records_error_attr():
    trc = SpanTracer(sim=FakeClock())
    with pytest.raises(RuntimeError):
        with trc.begin("cat", "failing"):
            raise RuntimeError("boom")
    rec = trc.spans[0]
    assert "RuntimeError" in rec.attrs["error"]


def test_open_spans_reports_leaks_and_clear_resets():
    trc = SpanTracer(sim=FakeClock())
    span = trc.begin("cat", "leaked")
    assert trc.open_spans() == [span]
    trc.clear()
    assert trc.open_spans() == []
    assert trc.spans == [] and trc.instants == []


def test_capacity_keeps_newest_and_counts_dropped():
    clock = FakeClock()
    trc = SpanTracer(sim=clock, capacity=2)
    for i in range(4):
        clock.now = float(i)
        trc.begin("cat", f"s{i}").end()
        trc.instant("cat", f"i{i}")
    assert [s.name for s in trc.spans] == ["s2", "s3"]
    assert [i.name for i in trc.instants] == ["i2", "i3"]
    assert trc.dropped == 4


def test_default_tracer_bounds_sequential_simulators(tmp_path):
    """The ``report --trace`` path: one ring-bounded tracer installed as
    the default records every simulator built after it, in sequence."""
    tracer = SpanTracer(capacity=3)
    set_default_tracer(tracer)
    try:
        for label in ("first", "second"):
            sim = Simulator()
            assert sim.tracer is tracer

            def body(sim=sim, label=label):
                for k in range(2):
                    span = sim.tracer.begin("phase", f"{label}{k}")
                    yield sim.timeout(1.0)
                    span.end()
                    sim.tracer.instant("phase", f"{label}{k}-done")

            sim.process(body())
            sim.run()
    finally:
        set_default_tracer(None)

    assert [s.name for s in tracer.spans] == ["first1", "second0", "second1"]
    assert [i.name for i in tracer.instants] == \
        ["first1-done", "second0-done", "second1-done"]
    assert tracer.dropped == 2                 # first0 and first0-done
    stamps = [t for s in tracer.spans for t in (s.begin, s.end)]
    assert stamps == sorted(stamps) == [1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
    path = tmp_path / "report-trace.json"
    write_chrome_trace(tracer, str(path))      # validates before writing
    assert json.loads(path.read_text())["otherData"]["dropped"] == 2


def test_rebind_rebases_clock_monotonically():
    sim1, sim2 = Simulator(), Simulator()
    trc = SpanTracer()
    trc.bind(sim1)

    def body(sim, label):
        span = trc.begin("cat", label)
        yield sim.timeout(5.0)
        span.end()

    sim1.process(body(sim1, "first"))
    sim1.run()
    trc.bind(sim2)  # sim2's clock restarts at 0; tracer must not go backwards
    sim2.process(body(sim2, "second"))
    sim2.run()

    first, second = trc.spans_named("first")[0], trc.spans_named("second")[0]
    assert first.end == pytest.approx(5.0)
    assert second.begin >= first.end
    assert second.duration == pytest.approx(5.0)


def test_stale_span_from_previous_binding_is_dropped():
    # A span begun under one simulator whose ``end`` only fires after the
    # tracer moved on (e.g. a ``finally`` run when the dead simulator's
    # generators are collected) must not be recorded: its end would be
    # stamped with the new simulator's clock and overlap live spans.
    sim1, sim2 = Simulator(), Simulator()
    trc = SpanTracer()
    trc.bind(sim1)
    stale = trc.begin("pcie", "in-flight", track="link.up")
    trc.bind(sim2)
    live = trc.begin("pcie", "fresh", track="link.up")
    stale.end()  # late end from the dead run: ignored
    live.end()
    assert [s.name for s in trc.spans] == ["fresh"]
    assert live.parent_id is None  # rebind also cleared the stale stack


def test_simulator_installs_tracer_and_null_by_default():
    sim = Simulator()
    assert not sim.tracer.enabled  # default: the inert null tracer
    trc = SpanTracer()
    sim2 = Simulator(tracer=trc)
    assert sim2.tracer is trc and trc.sim is sim2


def test_sink_receives_span_records():
    seen = []
    trc = SpanTracer(sim=FakeClock(), sink=seen.append)
    trc.begin("cat", "s").end()
    trc.instant("cat", "i")
    assert [type(r).__name__ for r in seen] == ["SpanRecord", "InstantRecord"]
