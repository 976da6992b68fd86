"""TelemetryPlane tests: wiring, SLO-breach trips the recorder, reporting."""

from repro.sim import Simulator
from repro.telemetry import Objective, TelemetryPlane


def _busy(sim, until, step=0.3e-6):
    """Keep the event loop busy so sample windows see activity."""
    t = step
    while t < until:
        sim.call_later(t, lambda: None)
        t += step


def test_plane_installs_recorder_as_the_tracer():
    sim = Simulator()
    plane = TelemetryPlane(sim, interval=1e-6)
    assert sim.tracer is plane.recorder
    plane.start()
    _busy(sim, 3.5e-6)
    sim.run(until=3.5e-6)
    assert plane.sampler.ticks == 3
    assert "sim.events" in plane.report()["series"]
    assert not plane.breached


def test_first_slo_breach_trips_the_flight_recorder_once():
    sim = Simulator()
    # Impossible objective: the event loop always does work per window.
    obj = Objective("impossible", "sim.events", "total", "<=", 0.0,
                    budget=0.0)
    plane = TelemetryPlane(sim, interval=1e-6, objectives=[obj])
    plane.start()
    _busy(sim, 5.5e-6)
    sim.run(until=5.5e-6)

    assert plane.breached
    monitor = plane.monitors[0]
    assert monitor.breaches >= 2              # kept breaching...
    assert len(plane.trips) == 1              # ...but tripped once
    assert plane.trips[0]["reason"] == "slo:impossible"
    assert len(plane.dumps) == 1
    assert plane.dumps[0]["detail"]["status"] == "breach"


def test_model_instrumentation_feeds_the_plane():
    sim = Simulator()
    plane = TelemetryPlane(sim, interval=1e-6, objectives=[
        Objective("tail", "span.rma.put", "p99", "<", 1e-6, budget=0.0)])
    trc = sim.tracer

    def put(duration):
        span = trc.begin("rma", "put")
        sim.call_later(duration, span.end)

    sim.call_later(0.2e-6, lambda: put(0.1e-6))     # fast put, window 1
    sim.call_later(1.2e-6, lambda: put(5e-6))       # slow put, breaches
    plane.start()
    sim.run(until=8.5e-6)

    v = plane.verdicts()[0]
    assert v["status"] == "breach"
    assert plane.trips
    # The breach dump retains the offending span.
    names = {s["name"] for s in plane.dumps[0]["spans"]}
    assert "put" in names


def test_watch_fabric_records_per_link_byte_series():
    class FakeLink:
        def __init__(self):
            self.bytes_sent = []

    class FakeFabric:
        def __init__(self):
            self._links = {("n0", "n1"): FakeLink(), ("n1", "n2"): FakeLink()}

        def links(self):
            return self._links

    sim = Simulator()
    fabric = FakeFabric()
    plane = TelemetryPlane(sim, interval=1e-6)
    plane.watch_fabric(fabric)
    link = fabric.links()[("n0", "n1")]
    sim.call_later(0.5e-6, lambda: link.bytes_sent.append(4096))
    sim.call_later(1.5e-6, lambda: link.bytes_sent.append(2048))
    plane.start()
    sim.run(until=2.5e-6)

    series = plane.sampler.series("link.n0-n1.bytes")
    assert [p.value for p in series.points()] == [4096, 2048]
    assert plane.sampler.series("link.n1-n2.bytes").total() == 0


def test_stop_lets_the_schedule_drain():
    sim = Simulator()
    plane = TelemetryPlane(sim, interval=1e-6)
    plane.start()
    sim.run(until=2.5e-6)
    plane.stop()
    sim.run()                                 # no re-armed tick left behind
    assert plane.sampler.ticks == 2


def test_render_mentions_objectives_and_trips():
    sim = Simulator()
    obj = Objective("impossible", "sim.events", "total", "<=", 0.0,
                    budget=0.0)
    plane = TelemetryPlane(sim, interval=1e-6, objectives=[obj])
    plane.start()
    _busy(sim, 2.5e-6)
    sim.run(until=2.5e-6)
    text = plane.render()
    assert "impossible" in text
    assert "breach" in text
    assert "flight recorder trips" in text
    report = plane.report()
    assert report["dumps"] == 1
    assert report["objectives"][0]["status"] == "breach"
