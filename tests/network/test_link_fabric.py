"""Unit + property tests for network links and the fabric."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetworkError
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.network import NetLinkConfig, NetworkFabric, Packet, PacketKind
from repro.network import link as link_module
from repro.sim import Simulator, join_result
from repro.units import KIB, US


def make_pair(sim=None, config=None):
    sim = sim or Simulator()
    fabric = NetworkFabric(sim)
    a, b = fabric.connect(0, 1, config)
    return sim, a, b


_SEQ = itertools.count()


def pkt(payload=b"", src=0, dst=1, header=32):
    return Packet(PacketKind.RMA_PUT, src, dst, header, payload,
                  seq=next(_SEQ))


def test_packet_crosses_link():
    sim, a, b = make_pair()

    def sender():
        yield from a.send(pkt(b"hello"))

    def receiver():
        p = yield b.recv()
        return p.payload

    sim.process(sender())
    rx = sim.process(receiver())
    sim.run()
    assert join_result(rx) == b"hello"


def test_delivery_takes_latency_plus_serialization():
    cfg = NetLinkConfig(bandwidth=1e9, latency=1e-6)
    sim, a, b = make_pair(config=cfg)

    def sender():
        yield from a.send(pkt(b"\x00" * 968))  # 968+32 = 1000 wire bytes

    def receiver():
        p = yield b.recv()
        return sim.now

    sim.process(sender())
    rx = sim.process(receiver())
    sim.run()
    # 1000B at 1GB/s = 1us serialization + 1us latency = 2us.
    assert join_result(rx) == pytest.approx(2e-6, rel=1e-6)


def test_in_order_delivery():
    sim, a, b = make_pair()
    received = []

    def sender():
        for i in range(20):
            yield from a.send(pkt(bytes([i])))

    def receiver():
        for _ in range(20):
            p = yield b.recv()
            received.append(p.payload[0])

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert received == list(range(20))


def test_duplex_no_cross_interference():
    """Both directions full rate simultaneously."""
    cfg = NetLinkConfig(bandwidth=1e9, latency=0.0)
    sim, a, b = make_pair(config=cfg)
    done = {}

    def sender(ep, tag):
        yield from ep.send(pkt(b"\x00" * (1000 - 32)))
        done[tag] = sim.now

    sim.process(sender(a, "a"))
    sim.process(sender(b, "b"))
    sim.run()
    assert done["a"] == pytest.approx(1e-6)
    assert done["b"] == pytest.approx(1e-6)


def test_same_direction_packets_serialize():
    cfg = NetLinkConfig(bandwidth=1e9, latency=0.0)
    sim, a, b = make_pair(config=cfg)
    done = []

    def sender(tag):
        yield from a.send(pkt(b"\x00" * (1000 - 32)))
        done.append((tag, sim.now))

    sim.process(sender("x"))
    sim.process(sender("y"))
    sim.run()
    assert done[0][1] == pytest.approx(1e-6)
    assert done[1][1] == pytest.approx(2e-6)


def test_fabric_rejects_self_connection():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    with pytest.raises(NetworkError):
        fabric.connect(0, 0)


def test_fabric_rejects_duplicate_connection():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    with pytest.raises(NetworkError):
        fabric.connect(1, 0)


def test_fabric_endpoint_lookup():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    a, b = fabric.connect(3, 7)
    assert fabric.endpoint(3) is a
    assert fabric.endpoint(7) is b
    with pytest.raises(NetworkError):
        fabric.endpoint(42)
    assert fabric.link_between(7, 3) is a.link


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=64), min_size=1, max_size=30))
def test_property_all_payloads_arrive_in_order(payloads):
    sim, a, b = make_pair()
    received = []

    def sender():
        for p in payloads:
            yield from a.send(pkt(p))

    def receiver():
        for _ in payloads:
            got = yield b.recv()
            received.append(got.payload)

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert received == payloads


# -- Delivery against the per-packet delivery process it replaced -------------

def reference_delivery(link, side, packet, prev, delay):
    """The ``deliver()`` process ``NetLink.send`` spawned per packet before
    :class:`~repro.network.link.Delivery`."""
    sim = link.sim
    dst_inbox = link.inbox[1 - side]

    def deliver():
        yield sim.timeout(delay)
        if prev is not None and not prev.processed:
            yield prev
        if sim.tracer.enabled:
            sim.tracer.instant(
                "net", f"deliver:{packet.kind.value}",
                track=f"{link.name}.rx{1 - side}", seq=packet.seq)
        yield dst_inbox.put(packet)

    return sim.process(deliver(), name=("{}.deliver{}", link.name, packet.seq))


def run_sends(config, sends, faults=LinkFaults()):
    """Send ``(time, side, payload bytes)`` packets over one link with
    ``faults``, each from its own process; return, per inbox and in arrival
    order, each packet's ``(i, arrival time, events processed before it
    arrived)``, per side the order its sends finished in, and the events
    processed in all."""
    sim, a, b = make_pair(config=config)
    FaultInjector(sim, FaultPlan.for_links({(0, 1): faults}, seed=3)
                  ).attach_link(a.link, 0, 1)
    ends = (a, b)
    arrivals = ([], [])
    sent = ([], [])
    for side, inbox in enumerate(a.link.inbox):
        def put(packet, put=inbox.put, side=side):
            arrivals[side].append(
                (packet.meta["i"], sim.now, sim.events_processed))
            return put(packet)
        inbox.put = put

    def sender(i, at, side, size):
        yield sim.timeout(at)
        packet = pkt(bytes(size), src=side, dst=1 - side)
        packet.meta["i"] = i
        yield from ends[side].send(packet)
        sent[side].append(i)

    def receiver(side):
        while True:
            yield ends[side].recv()

    for i, (at, side, size) in enumerate(sends):
        sim.process(sender(i, at, side, size))
    for side in (0, 1):
        sim.process(receiver(side))
    sim.run(until=2e3)      # past the last landing; receivers never return
    return arrivals, sent, sim.events_processed


def assert_matches_reference(config, sends, faults=LinkFaults()):
    got = run_sends(config, sends, faults)
    with mock.patch.object(link_module, "Delivery", reference_delivery):
        want = run_sends(config, sends, faults)
    assert got == want
    return got


@settings(max_examples=60, deadline=None)
@given(config=st.builds(NetLinkConfig,
                        bandwidth=st.sampled_from([1e9, 5e9]),
                        latency=st.sampled_from([0.0, 0.2 * US, 1 * US]),
                        credits=st.none() | st.integers(1, 3)),
       sends=st.lists(st.tuples(st.sampled_from([0.0, 0.1 * US, 0.5 * US]),
                                st.integers(0, 1),
                                st.integers(0, 2 * KIB)),
                      min_size=1, max_size=12),
       faults=st.builds(LinkFaults, loss=st.sampled_from([0.0, 0.3]),
                        corrupt=st.sampled_from([0.0, 0.3])))
def test_delivery_matches_the_process_it_replaced(config, sends, faults):
    arrivals, sent, _events = assert_matches_reference(config, sends, faults)
    # Whatever survives lands in each inbox in the order it was sent.
    for side in (0, 1):
        landed = [i for i, _t, _n in arrivals[1 - side]]
        assert landed == [i for i in sent[side] if i in landed]
    if faults.is_null:
        assert sorted(sent[0] + sent[1]) == list(range(len(sends)))
        assert len(arrivals[0]) + len(arrivals[1]) == len(sends)


def test_deliveries_landing_at_one_instant_keep_the_reference_order():
    # At t = 1e3 s a 32-byte packet's 3.2e-14 s serialization vanishes in
    # now + t, so back-to-back sends finish serializing, and land, at one
    # instant: the later delivery's timeout fires while the earlier one
    # is still unprocessed, and waits on it.
    config = NetLinkConfig(bandwidth=1e15, latency=1 * US)
    sends = [(1e3, 0, 0), (1e3, 0, 0), (1e3, 0, 0), (1e3, 1, 0)]
    (rx0, rx1), _sent, _events = assert_matches_reference(config, sends)
    assert [i for i, _t, _n in rx1] == [0, 1, 2]
    assert {t for _i, t, _n in rx0 + rx1} == {1e3 + 1 * US}
