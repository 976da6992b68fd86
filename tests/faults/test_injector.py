"""FaultInjector / LinkFaultState against real links: drops, corruption,
delays, outages, and the zero-cost null path."""

import itertools

import pytest

from repro.errors import ConfigError
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.network import NetLinkConfig, NetworkFabric, Packet, PacketKind
from repro.obs import SpanTracer
from repro.sim import Simulator


def make_pair(seed=1, tracer=None, config=None):
    sim = Simulator(seed=seed, tracer=tracer)
    fabric = NetworkFabric(sim)
    a, b = fabric.connect(0, 1, config)
    return sim, fabric, a, b


_SEQ = itertools.count()


def pkt(payload=b"\xab" * 32):
    return Packet(PacketKind.RMA_PUT, 0, 1, 32, payload, seq=next(_SEQ))


def pump(sim, a, b, count):
    """Send ``count`` packets a->b, return what landed in the receive-side
    inbox once the simulation ran dry."""

    def sender():
        for _ in range(count):
            yield from a.send(pkt())

    sim.process(sender())
    sim.run()
    return list(b.inbox._items)


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
    assert injector.counters()  # per-link snapshot is populated


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
    [delivered] = b.inbox._items
    assert injector.corruptions == 1
    assert delivered.is_corrupt
    assert delivered is not original
    # The sender's copy (a retransmission source) stays pristine.
    assert original.payload == b"\x11" * 64
    assert not original.is_corrupt


def test_delay_keeps_packets_but_reorders_them():
    sim, fabric, a, b = make_pair(
        config=NetLinkConfig(bandwidth=1e12, latency=10e-9))
    plan = FaultPlan.for_links({(0, 1): LinkFaults(
        delay_prob=0.5, delay_max=50e-6)}, seed=2)
    injector = FaultInjector(sim, plan).attach(fabric)
    received = pump(sim, a, b, 30)
    assert len(received) == 30                  # delayed, never lost
    assert injector.delays > 0
    order = [p.seq for p in received]
    assert order != sorted(order)               # delays escape the chain


def test_down_window_drops_then_recovers():
    sim, fabric, a, b = make_pair(
        tracer=SpanTracer(),
        config=NetLinkConfig(bandwidth=1e12, latency=10e-9))
    plan = FaultPlan.for_links(
        {(0, 1): LinkFaults(down_windows=((1e-6, 5e-6),))})
    injector = FaultInjector(sim, plan).attach(fabric)

    def sender():
        # One packet before, several inside, one after the outage.
        yield from a.send(pkt())
        yield sim.timeout(2e-6)
        for _ in range(3):
            yield from a.send(pkt())
        yield sim.timeout(6e-6)
        yield from a.send(pkt())

    sim.process(sender())
    sim.run()
    assert len(b.inbox._items) == 2
    assert injector.down_drops == 3
    assert injector.transitions == 2            # down edge + up edge
    state = next(iter(injector.states.values()))
    assert state.up
    # The outage is recorded as 0/1 samples on a timeline metric.
    timeline = sim.tracer.metrics.timeline(f"fault.{state.link.name}.up")
    assert [v for _, v in timeline.points] == [0, 1]
    assert timeline.points[0][0] == pytest.approx(1e-6)
    assert timeline.points[1][0] == pytest.approx(6e-6)


def test_flap_schedule_toggles_repeatedly():
    sim, fabric, a, b = make_pair()
    plan = FaultPlan.for_links({(0, 1): LinkFaults(
        flap_start=1e-6, flap_count=3, flap_period=4e-6,
        flap_downtime=1e-6)})
    injector = FaultInjector(sim, plan).attach(fabric)
    sim.run()
    assert injector.transitions == 6            # 3 flaps x 2 edges
    assert all(s.up for s in injector.states.values())


def test_double_attach_and_stray_bring_up_rejected():
    sim, fabric, a, b = make_pair()
    link = next(iter(fabric.links().values()))
    injector = FaultInjector(sim, FaultPlan.uniform(loss=0.5))
    injector.attach_link(link, 0, 1)
    with pytest.raises(ConfigError):
        injector.attach_link(link, 0, 1)
    state = injector.states[link.name]
    with pytest.raises(ConfigError):
        state.bring_up()
