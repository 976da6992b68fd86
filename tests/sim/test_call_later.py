"""call_later: one timeout that runs a function when it fires."""

from repro.sim import Simulator


def test_call_later_runs_fn_once_at_its_time():
    sim = Simulator()
    hits = []
    assert sim.call_later(1.0, lambda: hits.append(sim.now)) is None
    sim.run()
    assert hits == [1.0]


def test_calls_due_together_run_in_scheduling_order():
    sim = Simulator()
    order = []
    sim.call_later(2.0, lambda: order.append("c"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(1.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_rearm_from_callback():
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 3:
            sim.call_later(1.0, tick)

    sim.call_later(1.0, tick)
    sim.run()
    assert ticks == [1.0, 2.0, 3.0]
