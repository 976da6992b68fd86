"""FaultInjector / LinkFaultState against real links: drops, corruption,
and the zero-cost null path."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan
from repro.network import NetworkFabric, Packet, PacketKind
from repro.sim import Simulator


def make_pair(seed=1):
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim)
    a, b = fabric.connect(0, 1)
    return sim, fabric, a, b


_SEQ = itertools.count()


def pkt(payload=b"\xab" * 32):
    return Packet(PacketKind.RMA_PUT, 0, 1, 32, payload, seq=next(_SEQ))


def drain(store):
    """Every item buffered in *store*, oldest first: a ``get`` from a store
    that holds an item succeeds at once with it."""
    return [store.get().value for _ in range(len(store))]


def pump(sim, a, b, count):
    """Send ``count`` packets a->b, return what landed in the receive-side
    inbox once the simulation ran dry."""

    def sender():
        for _ in range(count):
            yield from a.send(pkt())

    sim.process(sender())
    sim.run()
    return drain(b.inbox)


@pytest.mark.quick
def test_null_plan_installs_nothing():
    sim, fabric, a, b = make_pair()
    injector = FaultInjector(sim, FaultPlan.none()).attach(fabric)
    assert injector.states == {}
    assert all(link.faults is None for link in fabric.links().values())
    assert len(pump(sim, a, b, 5)) == 5


@pytest.mark.quick
def test_total_loss_drops_everything():
    sim, fabric, a, b = make_pair()
    injector = FaultInjector(
        sim, FaultPlan.uniform(loss=1.0)).attach(fabric)
    received = pump(sim, a, b, 10)
    assert received == []
    assert injector.drops == 10
    assert [s.drops for s in injector.states.values()] == [10]


def test_partial_loss_is_seeded_and_counted():
    def run(seed):
        sim, fabric, a, b = make_pair(seed=seed)
        injector = FaultInjector(
            sim, FaultPlan.uniform(loss=0.5, seed=7)).attach(fabric)
        return len(pump(sim, a, b, 40)), injector.drops

    got1, drops1 = run(3)
    got2, drops2 = run(3)
    assert got1 + drops1 == 40
    assert 0 < drops1 < 40
    assert (got1, drops1) == (got2, drops2)   # deterministic replay
    # A different simulator seed reshuffles which packets die.
    assert run(4) != (got1, drops1) or run(5) != (got1, drops1)


def test_corruption_delivers_detectably_bad_clones():
    sim, fabric, a, b = make_pair()
    injector = FaultInjector(
        sim, FaultPlan.uniform(corrupt=1.0)).attach(fabric)
    original = pkt(b"\x11" * 64)

    def sender():
        yield from a.send(original)

    sim.process(sender())
    sim.run()
    [delivered] = drain(b.inbox)
    assert injector.corruptions == 1
    assert delivered.is_corrupt
    assert delivered is not original
    # The sender's copy (a retransmission source) stays pristine.
    assert original.payload == b"\x11" * 64
    assert not original.is_corrupt


def test_double_attach_rejected():
    sim, fabric, a, b = make_pair()
    link = next(iter(fabric.links().values()))
    injector = FaultInjector(sim, FaultPlan.uniform(loss=0.5))
    injector.attach_link(link, 0, 1)
    with pytest.raises(ConfigError):
        injector.attach_link(link, 0, 1)
