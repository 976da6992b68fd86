"""What the event core's fast paths must keep: the heap order, every check,
and the names they format only when read."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim import Resource, Simulator, Store, Timeout

#: A delay that vanishes in ``now + delay`` once the clock is at 1e3 (see
#: ``BASES``), so it triggers for the current instant although it is not 0.
TINY = 1e-14

#: Few distinct delays, so most events tie on time with some other.
DELAYS = st.sampled_from([0.0, 0.0, TINY, 0.25, 0.5, 1.0])

#: The clock when the first action is scheduled.
BASES = st.sampled_from([0.0, 1e3])

#: One scheduling action: how, and after what delay.  A ``process``
#: action spawns a process that yields its delays in turn; a
#: ``call_later`` action, when it fires, schedules one more timeout (it
#: returns nothing, so nothing awaits it); a ``chain`` action succeeds an
#: event after each delay in turn, each from the callback of the one
#: before.
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("succeed"), DELAYS),
        st.tuples(st.just("call_later"), DELAYS, DELAYS),
        st.tuples(st.just("process"), st.lists(DELAYS, min_size=1, max_size=4)),
        st.tuples(st.just("chain"), st.lists(DELAYS, min_size=1, max_size=4)),
    ),
    min_size=1, max_size=12)

#: How the clock moves after a batch of actions: ``until`` runs to
#: ``now + dt`` (``dt`` 0 included); ``complete`` runs until the j-th still
#: pending awaitable fires, which may leave same-instant events queued;
#: ``limit`` is a ``run_until_complete`` whose limit is already behind the
#: clock.
DRIVES = st.one_of(
    st.tuples(st.just("until"), st.sampled_from([0.0, 0.25])),
    st.tuples(st.just("complete"), st.integers(0, 20)),
    st.tuples(st.just("limit")),
)


@settings(max_examples=300, deadline=None)
@given(BASES, st.lists(st.tuples(ACTIONS, DRIVES), min_size=1, max_size=4))
# The awaited chain event fires at t=1 and succeeds its successor for
# now; the run returns with that event and the tied timeout(1) still
# queued.
@example(0.0, [([("chain", [1.0, 0.0]), ("timeout", 1.0)], ("complete", 0))])
def test_firing_order_is_time_then_scheduling_order(base, batches):
    sim = Simulator()
    sim.run(until=base)
    scheduled = []   # (fire time, scheduling order, label)
    fired = []
    awaitables = []  # the events a ``complete`` or ``limit`` drive awaits

    def note(label, delay):
        scheduled.append((sim.now + delay, len(scheduled), label))
        return lambda _ev: fired.append(label)

    def body(label, delays):
        for i, delay in enumerate(delays):
            on_fire = note(f"{label}.y{i}", delay)
            yield sim.timeout(delay)
            on_fire(None)

    def chain(label, delays):
        ev = sim.event()
        on_fire = note(label, delays[0])
        ev.succeed(delay=delays[0])
        ev.add_callback(on_fire)
        if delays[1:]:
            ev.add_callback(lambda _ev: chain(label + ".c", delays[1:]))
        return ev

    def schedule(label, action):
        if action[0] == "timeout":
            ev = sim.timeout(action[1])
            ev.add_callback(note(label, action[1]))
        elif action[0] == "succeed":
            ev = sim.event()
            on_fire = note(label, action[1])
            ev.succeed(delay=action[1])
            ev.add_callback(on_fire)
        elif action[0] == "call_later":
            _, delay, then = action
            on_fire = note(label, delay)

            def later(label=label, then=then, on_fire=on_fire):
                on_fire(None)
                sim.timeout(then).add_callback(note(label + ".then", then))

            sim.call_later(delay, later)
            return
        elif action[0] == "chain":
            ev = chain(label, action[1])
        else:
            ev = sim.process(body(label, action[1]))
        awaitables.append(ev)

    def pending():
        return [ev for ev in awaitables if not ev.processed]

    for b, (actions, drive) in enumerate(batches):
        for i, action in enumerate(actions):
            schedule(f"b{b}a{i}", action)
        if drive[0] == "until":
            until = sim.now + drive[1]
            sim.run(until=until)
            assert sim.now == until
        elif pending() and drive[0] == "complete":
            events = pending()
            sim.run_until_complete(events[drive[1] % len(events)])
        elif pending():
            before = (sim.now, sim.events_processed, len(fired))
            with pytest.raises(SimulationError, match="time limit"):
                sim.run_until_complete(pending()[0], limit=sim.now - 1.0)
            assert (sim.now, sim.events_processed, len(fired)) == before
    sim.run()
    assert fired == [label for _t, _k, label in sorted(scheduled)]


def test_yielding_another_simulators_event_fails_the_process():
    sim, other = Simulator(), Simulator()

    def body():
        yield other.timeout(1.0)

    proc = sim.process(body())
    with pytest.raises(SimulationError,
                       match="yielded an event from a different simulator"):
        sim.run_until_complete(proc)


def test_negative_succeed_delay_rejected():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError, match="negative delay"):
        ev.succeed(delay=-1)
    assert ev.pending


def test_yielding_a_processed_event_resumes_in_the_same_step():
    sim = Simulator()
    done = sim.event().succeed("early", delay=1.0)
    seen = []

    def body():
        yield sim.timeout(2.0)
        before = sim.events_processed
        value = yield done
        seen.append((value, sim.now, sim.events_processed - before))

    sim.process(body())
    sim.run()
    assert seen == [("early", 2.0, 0)]


def test_failed_event_is_failed_once_scheduled():
    sim = Simulator()
    ev = sim.event().fail(ValueError("boom"), delay=1.0)
    assert ev.triggered and not ev.ok
    with pytest.raises(SimulationError, match="already triggered"):
        ev.succeed()
    with pytest.raises(ValueError, match="boom"):
        sim.run()


def test_default_timeout_name_matches_g_format():
    sim = Simulator()
    assert Timeout(sim, 1e-6).name == "timeout(1e-06)"
    assert sim.timeout(2.5).name == "timeout(2.5)"
    assert sim.timeout(3).name == "timeout(3)"
    assert Timeout(sim, 1.0, name="nap").name == "nap"


def test_lazy_names_read_as_formatted_strings():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    proc = sim.process(body(), name=("{}.pkt{}", "hca0", 7))
    assert proc.name == "hca0.pkt7"
    assert sim._ready[0].name == "start:hca0.pkt7"
    assert Resource(sim, name="bus").acquire().name == "acquire:bus"
    store = Store(sim, name="box")
    assert store.put(1).name == "put:box"
    assert store.get().name == "get:box"
    ev = sim.event(("x{}", 1))
    ev.name = "renamed"
    assert ev.name == "renamed"


def test_deadlock_text_names_lazily_named_events():
    sim = Simulator()
    gate = sim.event(("gate{}", 3))

    def body():
        yield gate

    sim.process(body(), name=("{}.deliver{}", "link", 5))
    with pytest.raises(DeadlockError) as err:
        sim.run()
    assert "'link.deliver5' waiting on <Event 'gate3' pending>" in str(err.value)
