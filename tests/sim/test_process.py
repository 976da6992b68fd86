"""Unit tests for coroutine processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Process, Simulator, join_result


def test_process_runs_and_returns_value():
    sim = Simulator()

    def body():
        yield sim.timeout(2.0)
        return 42

    proc = sim.process(body())
    sim.run()
    assert join_result(proc) == 42
    assert sim.now == 2.0


def test_process_receives_event_values():
    sim = Simulator()

    def body():
        got = yield sim.event().succeed("hello", delay=1.0)
        return got

    proc = sim.process(body())
    sim.run()
    assert join_result(proc) == "hello"


def test_processes_interleave_by_time():
    sim = Simulator()
    log = []

    def worker(tag, step):
        for _ in range(3):
            yield sim.timeout(step)
            log.append((sim.now, tag))

    sim.process(worker("fast", 1.0))
    sim.process(worker("slow", 2.0))
    sim.run()
    # At the t=2.0 tie, slow's timeout was scheduled first (at t=0) so it
    # fires before fast's second timeout (scheduled at t=1).
    assert log == [
        (1.0, "fast"), (2.0, "slow"), (2.0, "fast"),
        (3.0, "fast"), (4.0, "slow"), (6.0, "slow"),
    ]


def test_process_joins_another_process():
    sim = Simulator()

    def child():
        yield sim.timeout(5.0)
        return "child-done"

    def parent():
        result = yield sim.process(child())
        return result

    proc = sim.process(parent())
    sim.run()
    assert join_result(proc) == "child-done"


def test_exception_propagates_to_joiner():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    def parent():
        try:
            yield sim.process(child())
        except ValueError as exc:
            return f"caught {exc}"

    proc = sim.process(parent())
    sim.run()
    assert join_result(proc) == "caught boom"


def test_unjoined_crash_raises_from_run():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    proc = sim.process(body())
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()
    # Raised once: the failure is still readable, and a second run is clean.
    with pytest.raises(RuntimeError, match="unhandled"):
        join_result(proc)
    sim.run()


def test_yielding_non_event_fails_the_process():
    sim = Simulator()

    def body():
        yield 123  # type: ignore[misc]

    sim.process(body())
    with pytest.raises(SimulationError, match="may only yield Event"):
        sim.run()


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Process(sim, lambda: None)  # type: ignore[arg-type]


def test_two_waiters_on_one_event():
    sim = Simulator()
    shared = sim.event()
    results = []

    def waiter(tag):
        val = yield shared
        results.append((tag, val, sim.now))

    sim.process(waiter("a"))
    sim.process(waiter("b"))

    def trigger():
        yield sim.timeout(3.0)
        shared.succeed("go")

    sim.process(trigger())
    sim.run()
    assert results == [("a", "go", 3.0), ("b", "go", 3.0)]
