"""What the event core's fast paths must keep: the heap order, every check,
and the names they format only when read."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.sim import Resource, Simulator, Store, Timeout

#: Few distinct delays, so most events tie on time with some other.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])

#: One scheduling action: how, and after what delay.  A ``process``
#: action spawns a process that yields its delays in turn; a
#: ``call_later`` action, when it fires, schedules one more timeout.
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), DELAYS),
        st.tuples(st.just("succeed"), DELAYS),
        st.tuples(st.just("call_later"), DELAYS, DELAYS),
        st.tuples(st.just("process"), st.lists(DELAYS, min_size=1, max_size=4)),
    ),
    min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(ACTIONS)
def test_firing_order_is_time_then_scheduling_order(actions):
    sim = Simulator()
    scheduled = []   # (fire time, scheduling order, label)
    fired = []

    def note(label, delay):
        scheduled.append((sim.now + delay, len(scheduled), label))
        return lambda _ev: fired.append(label)

    def body(label, delays):
        for i, delay in enumerate(delays):
            on_fire = note(f"{label}.y{i}", delay)
            yield sim.timeout(delay)
            on_fire(None)

    for i, action in enumerate(actions):
        label = f"a{i}"
        if action[0] == "timeout":
            sim.timeout(action[1]).add_callback(note(label, action[1]))
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
        else:
            sim.process(body(label, action[1]))
    sim.run()
    assert fired == [label for _t, _k, label in sorted(scheduled)]


def test_step_processes_exactly_one_event():
    sim = Simulator()
    fired = []
    for tag in "ab":
        sim.timeout(1.0).add_callback(lambda _ev, t=tag: fired.append(t))
    sim.step()
    assert (fired, sim.now, sim.events_processed) == (["a"], 1.0, 1)
    sim.step()
    assert fired == ["a", "b"]


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
    done = sim.timeout(1.0, value="early")
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
    assert sim.timeout(1.0, name="nap").name == "nap"


def test_lazy_names_read_as_formatted_strings():
    sim = Simulator()

    def body():
        yield sim.timeout(1.0)

    proc = sim.process(body(), name=("{}.pkt{}", "hca0", 7))
    assert proc.name == "hca0.pkt7"
    assert sim._heap[0][2].name == "start:hca0.pkt7"
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
