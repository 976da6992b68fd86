"""call_later cancellation handles (ScheduledCall)."""

from repro.sim import ScheduledCall, Simulator


def test_call_later_fires_and_reports_state():
    sim = Simulator()
    hits = []
    h = sim.call_later(1.0, lambda: hits.append(sim.now))
    assert isinstance(h, ScheduledCall)
    assert h.active and not h.fired
    sim.run()
    assert hits == [1.0]
    assert h.fired and not h.active


def test_cancel_turns_fire_into_noop():
    sim = Simulator()
    hits = []
    h = sim.call_later(1.0, lambda: hits.append(True))
    assert h.cancel()
    sim.run()
    assert hits == []
    assert not h.active and not h.fired
    # The heap entry still drained (the event processed as a no-op).
    assert h.event.processed


def test_cancel_is_idempotent_and_fails_after_fire():
    sim = Simulator()
    h1 = sim.call_later(1.0, lambda: None)
    assert h1.cancel()
    assert not h1.cancel()
    h2 = sim.call_later(1.0, lambda: None)
    sim.run()
    assert not h2.cancel()


def test_cancel_releases_closure():
    import gc
    import weakref

    class Payload:
        pass

    sim = Simulator()

    def make():
        big = Payload()
        return weakref.ref(big), sim.call_later(5.0, lambda: big)

    ref, h = make()
    gc.collect()
    assert ref() is not None  # closure keeps it alive while scheduled
    h.cancel()
    gc.collect()
    assert ref() is None  # cancel dropped the only reference


def test_cancelled_call_does_not_block_other_calls():
    sim = Simulator()
    order = []
    h1 = sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(1.0, lambda: order.append("b"))
    sim.call_later(2.0, lambda: order.append("c"))
    h1.cancel()
    sim.run()
    assert order == ["b", "c"]


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
