"""Unit tests for the tracing facility: the null tracer every simulator
starts with, and the one recording tracer (:class:`repro.obs.SpanTracer`)
seen through the protocol models use."""

import pytest

from repro.errors import ConfigError
from repro.obs import FlowRecord, InstantRecord, SpanTracer
from repro.sim import NULL_SPAN, NULL_TRACER, NullTracer, Simulator


def test_tracer_records_time_and_category():
    sim = Simulator()
    tracer = SpanTracer(sim)

    def body():
        yield sim.timeout(2.0)
        tracer.instant("rma", "posted WR")

    sim.process(body())
    sim.run()
    assert len(tracer.instants) == 1
    rec = tracer.instants[0]
    assert rec.time == 2.0
    assert rec.category == "rma"
    assert rec.name == "posted WR"


def test_tracer_category_filtering():
    sim = Simulator()
    tracer = SpanTracer(sim, categories={"keep"})
    tracer.instant("keep", "a")
    tracer.instant("drop", "b")
    tracer.flow_event("pst", "n0")        # flows need the "causal" category
    assert [r.category for r in tracer.instants] == ["keep"]
    assert list(tracer.flows) == []
    assert tracer.wants("keep") and not tracer.wants("causal")


def test_tracer_sink_callback():
    sim = Simulator()
    seen = []
    tracer = SpanTracer(sim, sink=seen.append)
    tracer.flow_event("pst", "n0", addr=(1, 0x40))
    assert len(seen) == 1
    assert isinstance(seen[0], FlowRecord)
    assert seen[0].addr == (1, 0x40)


def test_tracer_clear():
    sim = Simulator()
    tracer = SpanTracer(sim, capacity=1)
    tracer.instant("a", "b")
    tracer.instant("a", "c")               # evicts "b"
    tracer.flow_event("pst", "n0")
    tracer.metrics.counter("x").inc()
    tracer.clear()
    assert list(tracer.instants) == [] and list(tracer.flows) == []
    assert tracer.dropped == 0
    assert tracer.metrics.snapshot() == {}


def test_null_tracer_is_inert():
    assert NULL_TRACER.begin("anything", "goes") is NULL_SPAN
    NULL_TRACER.instant("anything", "goes")
    NULL_TRACER.flow_event("pst", "n0")
    assert not NULL_TRACER.wants("anything")
    assert NULL_TRACER.metrics.snapshot() == {}
    assert not NullTracer.enabled
    assert SpanTracer.enabled


def test_trace_record_str_format():
    rec = InstantRecord(category="pcie", name="TLP sent", track="link.up",
                        time=1.5e-6)
    s = str(rec)
    assert "1.500us" in s and "pcie" in s and "TLP sent" in s


def test_tracer_rejects_empty_window():
    # A ring that keeps nothing is a configuration error, not a silent
    # no-op tracer.
    with pytest.raises(ConfigError):
        SpanTracer(Simulator(), capacity=0)


def test_tracer_sink_sees_only_filtered_records():
    # The sink must observe exactly what gets recorded: the category filter
    # applies before the sink fires.  The ring bound does not: the sink
    # sees every kept record, including ones the ring later evicts.
    sim = Simulator()
    seen = []
    tracer = SpanTracer(sim, categories={"keep"}, sink=seen.append,
                        capacity=1)
    for t, cat in [(0.5, "keep"), (1.5, "drop"), (2.0, "keep")]:
        sim._now = t
        tracer.instant(cat, f"{cat}@{t}")
    assert [r.time for r in tracer.instants] == [2.0]
    assert [r.time for r in seen] == [0.5, 2.0]
    assert tracer.dropped == 1
