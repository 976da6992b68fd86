"""Flight-recorder tests: the plane's ring-bounded SpanTracer keeps the
newest spans while its aggregates stay exact, trips on retry exhaustion,
and retains exactly the tail of a full trace."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.tracer import SpanTracer
from repro.sim import Simulator
from repro.telemetry import TelemetryPlane


def _spans_workload(sim, tracer_target, n=10):
    """Schedule n one-shot spans at 1us intervals (durations of zero are
    fine: the histogram buckets zero explicitly)."""
    for k in range(n):
        sim.call_later((k + 1) * 1e-6,
                       (lambda kk=k: tracer_target.begin(
                           "phase", "work", step=kk).end()))


def test_rings_bound_retention_but_aggregates_stay_exact():
    sim = Simulator()
    plane = TelemetryPlane(sim, recorder_capacity=4)
    rec = plane.recorder
    _spans_workload(sim, rec, n=10)
    sim.run()
    # Only the last 4 spans are retained, the other 6 counted as dropped...
    assert len(rec.spans) == 4
    assert [s.attrs["step"] for s in rec.spans] == [6, 7, 8, 9]
    assert rec.dropped == 6
    # ...but the folded histogram saw all 10 (aggregates are unbounded).
    assert rec.metrics.histogram("span.phase.work").count == 10


def test_retained_spans_are_the_tail_of_a_full_trace():
    """The dump-reconciliation property the monitor CLI checks: run the
    same schedule under an unbounded SpanTracer and a bounded one — the
    bounded tracer's spans must be exactly the full trace's tail."""
    def run(tracer):
        sim = Simulator()
        sim.set_tracer(tracer)
        _spans_workload(sim, tracer, n=12)
        sim.run()
        return [(s.category, s.name, s.track, s.begin, s.end)
                for s in tracer.spans]

    full = run(SpanTracer())
    tail = run(SpanTracer(capacity=5))
    assert len(full) == 12
    assert tail == full[-5:]


def test_trigger_instant_trips_and_dumps():
    sim = Simulator()
    plane = TelemetryPlane(sim, recorder_capacity=8)
    rec = plane.recorder
    sim.call_later(1e-6, lambda: rec.instant("net", "packet-drop"))
    sim.call_later(2e-6, lambda: rec.instant("fault", "retry-exhausted",
                                             detail="conn 3"))
    sim.run()
    assert plane.trips
    assert len(plane.trips) == 1          # packet-drop is not a trigger
    assert plane.trips[0]["reason"] == "fault/retry-exhausted"
    assert plane.trips[0]["time"] == pytest.approx(2e-6)
    dump, = plane.dumps
    assert dump["reason"] == "fault/retry-exhausted"
    assert dump["detail"] == {"detail": "conn 3"}
    # The dump holds the context BEFORE the failure, drop included.
    assert [i["name"] for i in dump["instants"]] == \
        ["packet-drop", "retry-exhausted"]


def test_manual_trip_dump_is_json_safe_and_sees_open_spans():
    sim = Simulator()
    plane = TelemetryPlane(sim, recorder_capacity=8)
    rec = plane.recorder
    _spans_workload(sim, rec, n=2)
    sim.call_later(3e-6, lambda: rec.begin("rma", "stuck-put"))  # never ends
    sim.run()
    dump = plane.trip("slo:test", detail={"why": "unit test"})
    json.dumps(dump)                      # must round-trip
    assert list(dump) == ["reason", "detail", "time", "capacity", "spans",
                          "instants", "flows", "open_spans", "counters"]
    assert dump["reason"] == "slo:test"
    assert dump["capacity"] == 8
    assert len(dump["spans"]) == 2
    assert [o["name"] for o in dump["open_spans"]] == ["stuck-put"]
    assert dump["counters"] == rec.metrics.counter_values()
    assert plane.trips and plane.dumps == [dump]


def test_capacity_validated():
    with pytest.raises(ConfigError):
        TelemetryPlane(Simulator(), recorder_capacity=0)
