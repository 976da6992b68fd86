"""Unit tests for the simulator core: scheduling, time, determinism."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_time():
    sim = Simulator()
    ev = sim.timeout(5.0)
    sim.run()
    assert sim.now == 5.0
    assert ev.processed
    assert ev.ok


def test_timeout_carries_value():
    sim = Simulator()
    ev = sim.timeout(1.0, value="payload")
    sim.run()
    assert ev.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    for delay in (3.0, 1.0, 2.0):
        ev = sim.timeout(delay)
        ev.add_callback(lambda e, d=delay: order.append(d))
    sim.run()
    assert order == [1.0, 2.0, 3.0]


def test_ties_broken_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        ev = sim.timeout(1.0)
        ev.add_callback(lambda e, t=tag: order.append(t))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_at_horizon():
    sim = Simulator()
    fired = []
    sim.timeout(1.0).add_callback(lambda e: fired.append(1))
    sim.timeout(10.0).add_callback(lambda e: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0


def test_run_until_in_the_past_rejected():
    sim = Simulator()
    sim.timeout(2.0)
    sim.run()
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_step_on_empty_schedule_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.step()


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_callback_after_processed_runs_immediately():
    sim = Simulator()
    ev = sim.timeout(0.0)
    sim.run()
    hits = []
    ev.add_callback(lambda e: hits.append(e.value))
    assert hits == [None]


def test_run_until_complete_waits_for_named_events():
    sim = Simulator()
    a = sim.timeout(1.0)
    b = sim.timeout(3.0)
    sim.timeout(100.0)  # unrelated later event must not be required
    sim.run_until_complete(a, b)
    assert sim.now == 3.0


def test_run_until_complete_deadlock_detection():
    sim = Simulator()
    never = sim.event()  # nothing will ever trigger this
    with pytest.raises(DeadlockError):
        sim.run_until_complete(never)


def test_run_until_complete_time_limit():
    sim = Simulator()
    slow = sim.timeout(10.0)
    with pytest.raises(SimulationError):
        sim.run_until_complete(slow, limit=1.0)


def test_run_until_complete_raises_an_awaited_failure():
    sim = Simulator()
    bad = sim.event("bad")
    bad.fail(KeyError("awaited"), delay=1.0)
    later = sim.timeout(5.0)
    with pytest.raises(KeyError, match="awaited"):
        sim.run_until_complete(bad, later)
    assert sim.now == 1.0     # the failure ends the run at once


def test_unawaited_event_stays_unobserved_after_the_run():
    """An event a finished run_until_complete no longer awaits fails
    unobserved later, instead of being swallowed by a stale callback."""
    sim = Simulator()
    ev = sim.event("late")
    sim.timeout(1.0)
    with pytest.raises(SimulationError, match="limit"):
        sim.run_until_complete(ev, limit=0.5)
    ev.fail(ValueError("late failure"))
    with pytest.raises(ValueError, match="late failure"):
        sim.run()


def test_deterministic_schedules_across_runs():
    def build_and_run():
        sim = Simulator()
        log = []
        for i, d in enumerate([2.0, 2.0, 1.0, 3.0, 1.0]):
            sim.timeout(d).add_callback(lambda e, i=i: log.append((sim.now, i)))
        sim.run()
        return log

    assert build_and_run() == build_and_run()
