"""The list-backed FIFO queues hand off exactly as the deque-backed ones did.

``Store``, ``Resource`` and ``FlowState`` keep their waiters (and a
store its items) in plain lists, and a store keeps items and waiting
getters in one list.  The reference classes below are the deque-backed
versions they replace, a store's bounded mode left out (nothing set a
capacity).  A Hypothesis property drives the same random sequence of
puts and gets, acquires and releases, and credit acquires and releases,
many of them at one instant, through both, and compares every event's
value and firing time, the order the events fire in, every error, the
buffered counts and the simulator's event count.
"""

from __future__ import annotations

import itertools
from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError, SimulationError
from repro.network.link import FlowState, NetLinkConfig
from repro.sim import Event, Resource, Simulator, Store


class DequeResource:
    def __init__(self, sim, capacity=1, name=""):
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters = deque()

    def acquire(self):
        ev = Event(self.sim, ("acquire:{}", self.name))
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self):
        if self._in_use <= 0:
            raise SimulationError(f"release() without acquire on {self.name!r}")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1


class DequeStore:
    def __init__(self, sim, name=""):
        self.sim = sim
        self.name = name
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        ev = Event(self.sim, ("put:{}", self.name))
        if self._getters:
            self._getters.popleft().succeed(item)
            ev.succeed()
        else:
            self._items.append(item)
            ev.succeed()
        return ev

    def get(self):
        ev = Event(self.sim, ("get:{}", self.name))
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev


class DequeFlowState:
    def __init__(self, link):
        cfg = link.config
        self.link = link
        self.credits = cfg.credits
        self.vcs = cfg.vcs
        self._avail = [[cfg.credits] * cfg.vcs, [cfg.credits] * cfg.vcs]
        self._waiters = [[deque() for _ in range(cfg.vcs)],
                         [deque() for _ in range(cfg.vcs)]]

    def acquire(self, direction, vc):
        if not 0 <= vc < self.vcs:
            raise NetworkError(
                f"{self.link.name}: packet asks for VC {vc} but the link "
                f"has {self.vcs}")
        avail = self._avail[direction]
        if avail[vc] > 0:
            avail[vc] -= 1
            return None
        ev = Event(self.link.sim, name=f"{self.link.name}.crd{direction}v{vc}")
        self._waiters[direction][vc].append(ev)
        return ev

    def release(self, direction, vc):
        waiters = self._waiters[direction][vc]
        if waiters:
            waiters.popleft().succeed()
            return
        self._avail[direction][vc] += 1
        if self._avail[direction][vc] > self.credits:
            raise NetworkError(
                f"{self.link.name}: credit over-release on dir {direction} "
                f"vc {vc}")

    def in_flight(self, direction):
        return self.credits * self.vcs - sum(self._avail[direction])

    def waiting(self, direction):
        return sum(len(q) for q in self._waiters[direction])


LISTS = (Store, Resource, FlowState)
DEQUES = (DequeStore, DequeResource, DequeFlowState)

#: One operation: on store 0 or 1, on the resource, or on the credit pool
#: of direction 0 or 1 and VC 0 or 1.  A ``then`` flag makes a put's or a
#: get's event, when it fires, put or get once more on the other store,
#: and an acquire's release the slot: hand-offs from callbacks, at the
#: instant the event fires.
OPS = st.one_of(
    st.tuples(st.sampled_from(["put", "get"]), st.integers(0, 1),
              st.booleans()),
    st.tuples(st.sampled_from(["acquire", "release"]), st.just(0),
              st.booleans()),
    st.tuples(st.sampled_from(["credit", "return"]),
              st.tuples(st.integers(0, 1), st.integers(0, 1)),
              st.just(False)),
)

#: Batches of operations, each run from one timeout's callback; most
#: delays repeat, so batches share an instant.
BATCHES = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]),
              st.lists(OPS, min_size=1, max_size=8)),
    min_size=1, max_size=8)


def replay(classes, capacity, credits, batches):
    """Run *batches* on the store, resource and flow-state *classes*; return
    what an observer sees: ``(log, events processed, final time)``."""
    store_cls, resource_cls, flow_cls = classes
    sim = Simulator()
    stores = [store_cls(sim, name="s0"), store_cls(sim, name="s1")]
    resource = resource_cls(sim, capacity, name="r")
    link = SimpleNamespace(sim=sim, name="l",
                           config=NetLinkConfig(credits=credits, vcs=2))
    flow = flow_cls(link)
    items = itertools.count()
    log = []

    def state():
        return ([len(s) for s in stores],
                [flow.waiting(d) for d in (0, 1)],
                [flow.in_flight(d) for d in (0, 1)])

    def fired(label, then):
        def on_fire(ev):
            log.append((label, "fired", sim.now, ev.value))
            if then:
                run(label + ".then", then)
        return on_fire

    def run(label, op):
        kind, where, then = op
        follow = None
        try:
            if kind == "put":
                ev = stores[where].put(next(items))
                follow = ("get", 1 - where, False) if then else None
            elif kind == "get":
                ev = stores[where].get()
                follow = ("put", 1 - where, False) if then else None
            elif kind == "acquire":
                ev = resource.acquire()
                follow = ("release", 0, False) if then else None
            elif kind == "release":
                ev = resource.release()
            elif kind == "credit":
                ev = flow.acquire(*where)
            else:
                ev = flow.release(*where)
        except (SimulationError, NetworkError) as exc:
            log.append((label, type(exc).__name__, str(exc)))
        else:
            log.append((label, "made", ev is None or ev.triggered))
            if ev is not None:
                ev.callbacks.append(fired(label, follow))
        log.append((label, state()))

    for b, (delay, ops) in enumerate(batches):
        def batch(_ev, b=b, ops=ops):
            for i, op in enumerate(ops):
                run(f"b{b}o{i}", op)
        sim.timeout(delay).callbacks.append(batch)
    sim.run()
    return log, sim.events_processed, sim.now


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), BATCHES)
def test_lists_hand_off_as_the_deques_did(capacity, credits, batches):
    assert (replay(LISTS, capacity, credits, batches)
            == replay(DEQUES, capacity, credits, batches))
