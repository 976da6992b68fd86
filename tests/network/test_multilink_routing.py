"""Multi-link fabric routing: registries, BFS routes, store-and-forward.

Satellite coverage for the N-node fabric generalization: a node on several
links keeps one endpoint per link, routers relay transit packets, and the
per-router counters account for every packet exactly once.
"""

import itertools

import pytest

from repro.errors import NetworkError
from repro.network import NetworkFabric, Packet, PacketKind
from repro.sim import Simulator, join_result


_SEQ = itertools.count()


def pkt(src, dst, payload=b""):
    return Packet(PacketKind.RMA_PUT, src, dst, 32, payload, seq=next(_SEQ))


def make_ring(n, sim=None):
    sim = sim or Simulator()
    fabric = NetworkFabric(sim)
    for i in range(n):
        fabric.connect(i, (i + 1) % n)
    routers = [fabric.make_router(i) for i in range(n)]
    fabric.compute_routes()
    return sim, fabric, routers


def make_star(n, sim=None):
    """n leaf nodes around a pure-transit switch with id ``n``."""
    sim = sim or Simulator()
    fabric = NetworkFabric(sim)
    for i in range(n):
        fabric.connect(i, n)
    fabric.make_router(n)
    fabric.compute_routes()
    return sim, fabric


def test_multi_link_node_keeps_all_endpoints():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    fabric.connect(0, 2)
    fabric.connect(0, 3)
    assert fabric.neighbors(0) == [1, 2, 3]
    # Each (node, peer) pair resolves to a distinct endpoint on the right link.
    eps = [fabric.endpoint(0, peer) for peer in (1, 2, 3)]
    assert len({id(e) for e in eps}) == 3
    for ep, peer in zip(eps, (1, 2, 3)):
        assert ep.node_id == 0
        assert ep.peer_id == peer
        assert ep.link is fabric.link_between(0, peer)


def test_bare_endpoint_lookup_rejects_multi_link_nodes():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    fabric.connect(0, 2)
    with pytest.raises(NetworkError, match="is on 2 links"):
        fabric.endpoint(0)
    # Single-link nodes keep the unambiguous seed-era lookup.
    assert fabric.endpoint(1).peer_id == 0
    with pytest.raises(NetworkError):
        fabric.endpoint(0, 42)


def test_ring_all_pairs_reachability():
    n = 5
    sim, fabric, routers = make_ring(n)
    received = []

    def receiver(router, count):
        for _ in range(count):
            p = yield router.recv()
            received.append((p.src_node, p.dst_node, p.payload))

    def sender(router, dst):
        yield from router.send(pkt(router.node_id, dst,
                                   bytes([router.node_id, dst])))

    for src in range(n):
        for dst in range(n):
            if src != dst:
                sim.process(sender(routers[src], dst))
    rx = [sim.process(receiver(routers[node], n - 1)) for node in range(n)]
    sim.run_until_complete(*rx, limit=1.0)
    assert len(received) == n * (n - 1)
    assert {(s, d) for (s, d, _pl) in received} \
        == {(s, d) for s in range(n) for d in range(n) if s != d}
    for s, d, payload in received:
        assert payload == bytes([s, d])


def test_relayed_path_preserves_order():
    # 0 -> 2 on a 4-ring goes through a relay either way; a burst must
    # arrive in send order.
    sim, fabric, routers = make_ring(4)
    received = []

    def sender():
        for i in range(25):
            yield from routers[0].send(pkt(0, 2, bytes([i])))

    def receiver():
        for _ in range(25):
            p = yield routers[2].recv()
            received.append(p.payload[0])

    sim.process(sender())
    rx = sim.process(receiver())
    sim.run_until_complete(rx, limit=1.0)
    assert received == list(range(25))


def test_ring_routes_take_shortest_path_and_count_hops():
    # On a 4-ring, 0->1 is direct (no forwards); 0->2 is two hops (exactly
    # one relay); ties (two equal paths) break toward the lower peer id.
    sim, fabric, routers = make_ring(4)
    assert routers[0].next_hop(1).peer_id == 1
    assert routers[0].next_hop(3).peer_id == 3
    assert routers[0].next_hop(2).peer_id == 1  # tie: via 1, not via 3

    def sender():
        yield from routers[0].send(pkt(0, 2, b"x"))

    def receiver():
        p = yield routers[2].recv()
        return sim.now

    sim.process(sender())
    rx = sim.process(receiver())
    sim.run_until_complete(rx, limit=1.0)
    assert join_result(rx) > 0
    assert routers[1].packets_forwarded == 1     # the single relay
    assert routers[1].packets_terminated == 0
    assert routers[2].packets_terminated == 1
    assert routers[3].packets_forwarded == 0


def test_relay_adds_forwarding_latency():
    sim1, fabric1, routers1 = make_ring(4)

    def send_direct():
        yield from routers1[0].send(pkt(0, 1, b"d"))

    def recv_direct():
        yield routers1[1].recv()
        return sim1.now

    sim1.process(send_direct())
    direct = sim1.process(recv_direct())
    sim1.run_until_complete(direct, limit=1.0)

    sim2, fabric2, routers2 = make_ring(4)

    def send_hop():
        yield from routers2[0].send(pkt(0, 2, b"h"))

    def recv_hop():
        yield routers2[2].recv()
        return sim2.now

    sim2.process(send_hop())
    hopped = sim2.process(recv_hop())
    sim2.run_until_complete(hopped, limit=1.0)
    # Two link crossings + the store-and-forward delay beat one crossing.
    assert join_result(hopped) > 2 * join_result(direct)


def test_switch_star_pure_transit_counters():
    n = 4
    sim, fabric = make_star(n)
    switch = fabric.attachment(n)
    leaves = [fabric.endpoint(i, n) for i in range(n)]
    received = {i: [] for i in range(n)}

    def sender(src):
        for dst in range(n):
            if dst != src:
                yield from leaves[src].send(pkt(src, dst, bytes([src])))

    def receiver(dst):
        for _ in range(n - 1):
            p = yield leaves[dst].recv()
            received[dst].append(p.src_node)

    rx = []
    for i in range(n):
        sim.process(sender(i))
        rx.append(sim.process(receiver(i)))
    sim.run_until_complete(*rx, limit=1.0)
    total = n * (n - 1)
    # The switch's own id terminates nothing: every packet is transit.
    assert switch.packets_forwarded == total
    assert switch.packets_terminated == 0
    for dst in range(n):
        assert sorted(received[dst]) == [s for s in range(n) if s != dst]


def test_compute_routes_rejects_partitioned_fabric():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    fabric.connect(2, 3)    # disconnected island
    fabric.make_router(0)
    with pytest.raises(NetworkError, match="unreachable"):
        fabric.compute_routes()


def test_router_rejects_duplicate_link_and_unknown_route():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    router = fabric.make_router(0)
    with pytest.raises(NetworkError):
        router.add_link(fabric.endpoint(0, 1))
    with pytest.raises(NetworkError):
        router.next_hop(9)
    with pytest.raises(NetworkError):
        router.set_route(9, 5)
    with pytest.raises(NetworkError):
        fabric.make_router(0)


def test_attachment_prefers_router():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    router = fabric.make_router(0)
    assert fabric.attachment(0) is router
    assert fabric.attachment(1) is fabric.endpoint(1)


def test_router_rejects_negative_forward_time_when_built():
    sim = Simulator()
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    fabric.connect(1, 2)
    with pytest.raises(NetworkError, match="forward_time must be >= 0"):
        fabric.make_router(1, forward_time=-1e-9)
    # None still defers to the outgoing link's relay cost.
    router = fabric.make_router(1, forward_time=None)
    assert router.relay_cost(fabric.endpoint(1, 2)) \
        == fabric.link_between(1, 2).config.forward_time
