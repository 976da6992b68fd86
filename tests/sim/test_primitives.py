"""Unit tests for AllOf composition."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, Simulator, join_result


def test_all_of_waits_for_slowest():
    sim = Simulator()
    a = sim.event().succeed("a", delay=1.0)
    b = sim.event().succeed("b", delay=5.0)

    def body():
        values = yield AllOf(sim, [a, b])
        return (sim.now, values[a], values[b])

    proc = sim.process(body())
    sim.run()
    assert join_result(proc) == (5.0, "a", "b")


def test_all_of_fails_if_any_child_fails():
    sim = Simulator()
    ok = sim.timeout(10.0)
    bad = sim.event()

    def failer():
        yield sim.timeout(1.0)
        bad.fail(RuntimeError("child failed"))

    def body():
        yield AllOf(sim, [ok, bad])

    sim.process(failer())
    sim.process(body())
    with pytest.raises(RuntimeError, match="child failed"):
        sim.run()


def test_empty_all_of_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AllOf(sim, [])


def test_cross_simulator_events_rejected():
    sim1 = Simulator()
    sim2 = Simulator()
    ev = sim2.timeout(1.0)
    with pytest.raises(SimulationError):
        AllOf(sim1, [ev])


def test_all_of_with_already_processed_children():
    sim = Simulator()
    a = sim.event().succeed(1, delay=1.0)
    b = sim.event().succeed(2, delay=2.0)
    sim.run()

    def body():
        values = yield AllOf(sim, [a, b])
        return sorted(values.values())

    proc = sim.process(body())
    sim.run()
    assert join_result(proc) == [1, 2]
