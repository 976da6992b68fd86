"""The network fabric: point-to-point links, N-node topologies, routing.

Wires NIC endpoints together over :class:`NetLink`s and gives each NIC an
``endpoint`` handle with ``send``/``recv``.  The paper's testbed is exactly
two nodes per fabric (two EXTOLL Galibier nodes, two IB FDR nodes); the
fabric also supports arbitrary N-node topologies: a node that participates
in several links attaches through a :class:`RouterEndpoint`, which picks the
outgoing link per destination and relays transit packets store-and-forward
(the same hop discipline as :mod:`repro.pcie.switch`), so rings and switched
star topologies route multi-hop traffic without the NICs knowing.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..sim import Simulator, Store
from .link import FORWARD_TIME, NetLink, NetLinkConfig
from .packet import Packet

__all__ = ["FORWARD_TIME", "Endpoint", "RouterEndpoint", "NetworkFabric"]


class Endpoint:
    """One NIC's attachment to a single link."""

    def __init__(self, link: NetLink, side: int, node_id: int,
                 peer_id: int) -> None:
        self.link = link
        self.side = side
        self.node_id = node_id
        self.peer_id = peer_id
        # When the link runs credit flow control, a plain endpoint returns
        # the credit as soon as its consumer drains the inbox; a router
        # flips this off and releases manually AFTER relaying, so a full
        # switch buffer backpressures the upstream hop.
        self.auto_credit = True

    def send(self, packet: Packet):
        """Process fragment: transmit a packet toward the peer."""
        trc = self.link.sim.tracer
        if trc.enabled:
            trc.metrics.counter(f"net.node{self.node_id}.sends").inc()
        return self.link.send(self.side, packet)

    @property
    def inbox(self) -> Store:
        return self.link.inbox[self.side]

    def recv(self):
        """Event: the next packet addressed to this endpoint."""
        ev = self.inbox.get()
        if self.link.flow is not None and self.auto_credit:
            side = self.side
            link = self.link

            def _release(e, _side=side, _link=link):
                if e.ok:
                    _link.release_credit(_side, e.value)

            ev.add_callback(_release)
        return ev

    def credit_release(self, packet: Packet, vc: Optional[int] = None) -> None:
        """Manually return the credit ``packet`` held on its way in (used
        by routers, which disable ``auto_credit``).  ``vc`` is the arrival
        VC, captured before any re-stamping for the next hop."""
        if self.link.flow is not None and not self.auto_credit:
            self.link.release_credit(self.side, packet, vc)


class RouterEndpoint:
    """A node's attachment when it has several links (or acts as a switch).

    Presents the same ``send``/``recv``/``node_id`` surface a NIC expects
    from :class:`Endpoint`, on top of

    * a routing table mapping destination node id -> first-hop link endpoint,
    * one pump process per member link that sorts arrivals: packets for this
      node land in the unified ``inbox``; transit packets are handed to a
      per-virtual-channel relay worker that forwards them onto the next hop
      after a store-and-forward delay.

    Per-(link, VC) in-order delivery is preserved (each relay worker
    forwards serially); packets on different VCs or paths may interleave,
    exactly like a real multi-path fabric.  The per-VC workers are what
    makes dateline VC schemes sound: a packet blocked on a congested
    output holds only its own VC's queue, so escape-VC traffic on the same
    input link keeps moving instead of deadlocking behind it.
    """

    def __init__(self, sim: Simulator, node_id: int,
                 forward_time: Optional[float] = FORWARD_TIME) -> None:
        if forward_time is not None and forward_time < 0:
            raise NetworkError(
                f"router {node_id}: forward_time must be >= 0 (or None), "
                f"got {forward_time!r}")
        self.sim = sim
        self.node_id = node_id
        #: Per-node override of the relay cost; ``None`` defers to each
        #: outgoing link's ``config.forward_time``, letting switch classes
        #: (core vs leaf) carry different costs.  The default keeps the
        #: historical uniform 120 ns.
        self.forward_time = forward_time
        self.inbox: Store = Store(sim, name=f"router{node_id}.inbox")
        self._links: Dict[int, Endpoint] = {}     # peer id -> link endpoint
        self._routes: Dict[int, int] = {}         # dst node id -> peer id
        self.packets_forwarded = 0
        self.packets_terminated = 0

    # -- wiring ------------------------------------------------------------------
    def add_link(self, endpoint: Endpoint) -> None:
        if endpoint.peer_id in self._links:
            raise NetworkError(
                f"router {self.node_id} already attached to {endpoint.peer_id}")
        endpoint.auto_credit = False    # routers release after relaying
        self._links[endpoint.peer_id] = endpoint
        self.sim.process(self._pump(endpoint),
                         name=f"router{self.node_id}.rx{endpoint.peer_id}")

    def set_route(self, dst: int, via_peer: int) -> None:
        if via_peer not in self._links:
            raise NetworkError(
                f"router {self.node_id}: no link to next hop {via_peer}")
        self._routes[dst] = via_peer

    def next_hop(self, dst: int) -> Endpoint:
        if dst in self._links:          # directly connected beats any route
            return self._links[dst]
        try:
            return self._links[self._routes[dst]]
        except KeyError:
            raise NetworkError(
                f"router {self.node_id} has no route to node {dst}") from None

    @property
    def peers(self) -> List[int]:
        return sorted(self._links)

    # -- NIC-facing surface ----------------------------------------------------------
    def route(self, packet: Packet) -> Endpoint:
        """The outgoing endpoint for ``packet`` — the per-packet routing
        hook.  The base class does static table lookup by destination;
        policy routers (:mod:`repro.fabrics.routing`) override this to
        pick per-packet adaptive routes and stamp VCs."""
        return self.next_hop(packet.dst_node)

    def send(self, packet: Packet):
        """Process fragment: transmit toward ``packet.dst_node`` on the
        routed first hop."""
        return self.route(packet).send(packet)

    def recv(self):
        """Event: the next packet terminating at this node."""
        return self.inbox.get()

    def relay_cost(self, out: Endpoint) -> float:
        return (self.forward_time if self.forward_time is not None
                else out.link.config.forward_time)

    # -- relaying ----------------------------------------------------------------
    def _pump(self, endpoint: Endpoint):
        # Demux arrivals: ejections terminate here; transit packets queue
        # on their arrival VC's relay worker (spawned lazily, so links
        # that never see a second VC never pay for one).
        queues: Dict[int, Store] = {}
        while True:
            packet = yield endpoint.recv()
            if packet.dst_node == self.node_id:
                self.packets_terminated += 1
                yield self.inbox.put(packet)
                endpoint.credit_release(packet)
                continue
            vc = packet.meta.get("vc", 0)
            queue = queues.get(vc)
            if queue is None:
                queue = Store(self.sim,
                              name=f"router{self.node_id}"
                                   f".rx{endpoint.peer_id}.vc{vc}")
                queues[vc] = queue
                self.sim.process(
                    self._relay(endpoint, queue, vc),
                    name=f"router{self.node_id}.fwd{endpoint.peer_id}"
                         f".vc{vc}")
            yield queue.put(packet)

    def _relay(self, endpoint: Endpoint, queue: Store, vc: int):
        trc = self.sim.tracer
        actor = f"fab.s{self.node_id}"
        while True:
            packet = yield queue.get()
            # Store-and-forward relay: decode + route, then pay the next
            # link's serialization.  The worker blocks until the packet
            # has left, preserving per-(input-link, VC) order — a blocked
            # head packet never stalls the other VCs of this link, which
            # is what lets a dateline VC scheme actually break deadlock
            # cycles.
            self.packets_forwarded += 1
            if trc.enabled:
                trc.instant("net", "forward", track=f"router{self.node_id}",
                            seq=packet.seq, dst=packet.dst_node)
                trc.metrics.counter(f"net.router{self.node_id}.forwards").inc()
            out = self.route(packet)    # re-stamps meta["vc"] for the next hop
            yield self.sim.timeout(self.relay_cost(out))
            yield from out.send(packet)
            # Only now — the packet has fully left this hop — hand the
            # input-link credit back, so a congested output propagates
            # backpressure upstream.
            endpoint.credit_release(packet, vc)
            if trc.enabled and trc.wants("causal"):
                caddr = packet.meta.get("caddr")
                if caddr is not None:
                    trc.flow_event("hop", actor, addr=caddr,
                                   via=out.peer_id)


class NetworkFabric:
    """A collection of point-to-point links keyed by node-id pairs."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._links: Dict[Tuple[int, int], NetLink] = {}
        # Keyed by (node, peer): a node keeps one endpoint per link it is
        # on, so participating in several links no longer overwrites the
        # registry entry.
        self._endpoints: Dict[Tuple[int, int], Endpoint] = {}
        self._routers: Dict[int, RouterEndpoint] = {}

    def connect(self, node_a: int, node_b: int,
                config: NetLinkConfig | None = None) -> Tuple[Endpoint, Endpoint]:
        if node_a == node_b:
            raise NetworkError("cannot connect a node to itself")
        key = (min(node_a, node_b), max(node_a, node_b))
        if key in self._links:
            raise NetworkError(f"nodes {key} already connected")
        link = NetLink(self.sim, f"link{node_a}-{node_b}", config)
        ep_a = Endpoint(link, 0 if node_a < node_b else 1, node_a, node_b)
        ep_b = Endpoint(link, 0 if node_b < node_a else 1, node_b, node_a)
        self._links[key] = link
        self._endpoints[(node_a, node_b)] = ep_a
        self._endpoints[(node_b, node_a)] = ep_b
        return ep_a, ep_b

    def endpoint(self, node_id: int, peer_id: Optional[int] = None) -> Endpoint:
        """The endpoint of ``node_id`` toward ``peer_id``.

        Without ``peer_id`` the node must be on exactly one link (the
        two-node testbeds); a multi-link node makes the bare lookup
        ambiguous.
        """
        if peer_id is not None:
            try:
                return self._endpoints[(node_id, peer_id)]
            except KeyError:
                raise NetworkError(
                    f"node {node_id} has no endpoint toward {peer_id}") from None
        mine = [ep for (nid, _peer), ep in sorted(self._endpoints.items())
                if nid == node_id]
        if not mine:
            raise NetworkError(f"node {node_id} has no endpoint")
        if len(mine) > 1:
            raise NetworkError(
                f"node {node_id} is on {len(mine)} links; pass peer_id "
                f"(one of {self.neighbors(node_id)})")
        return mine[0]

    def neighbors(self, node_id: int) -> List[int]:
        return sorted(peer for (nid, peer) in self._endpoints if nid == node_id)

    def node_ids(self) -> List[int]:
        return sorted({nid for (nid, _peer) in self._endpoints})

    def link_between(self, node_a: int, node_b: int) -> NetLink:
        key = (min(node_a, node_b), max(node_a, node_b))
        try:
            return self._links[key]
        except KeyError:
            raise NetworkError(f"no link between {node_a} and {node_b}") from None

    def links(self) -> Dict[Tuple[int, int], NetLink]:
        return dict(self._links)

    # -- N-node routing ------------------------------------------------------------
    def make_router(self, node_id: int,
                    forward_time: Optional[float] = FORWARD_TIME,
                    factory=None) -> RouterEndpoint:
        """Bundle every link of ``node_id`` behind a routing endpoint.

        ``factory(sim, node_id, forward_time)`` may supply a
        :class:`RouterEndpoint` subclass (policy routers).
        """
        if node_id in self._routers:
            raise NetworkError(f"node {node_id} already has a router")
        peers = self.neighbors(node_id)
        if not peers:
            raise NetworkError(f"node {node_id} has no links to route over")
        if factory is None:
            router = RouterEndpoint(self.sim, node_id, forward_time)
        else:
            router = factory(self.sim, node_id, forward_time)
        for peer in peers:
            router.add_link(self._endpoints[(node_id, peer)])
        self._routers[node_id] = router
        return router

    def router(self, node_id: int) -> RouterEndpoint:
        try:
            return self._routers[node_id]
        except KeyError:
            raise NetworkError(f"node {node_id} has no router") from None

    def attachment(self, node_id: int):
        """What a NIC on ``node_id`` talks to: its router if one exists,
        else its single link endpoint."""
        return self._routers.get(node_id) or self.endpoint(node_id)

    def compute_routes(self) -> None:
        """Fill every router's table with BFS shortest-path first hops.

        Deterministic: neighbors are explored in sorted order, so ties are
        broken toward the lowest-numbered next hop.  Call after all
        ``connect``/``make_router`` calls.
        """
        all_ids = self.node_ids()
        for router in self._routers.values():
            src = router.node_id
            first_hop: Dict[int, int] = {}
            visited = {src}
            frontier = deque()
            for peer in router.peers:
                first_hop[peer] = peer
                visited.add(peer)
                frontier.append(peer)
            while frontier:
                u = frontier.popleft()
                for v in self.neighbors(u):
                    if v not in visited:
                        visited.add(v)
                        first_hop[v] = first_hop[u]
                        frontier.append(v)
            for dst in all_ids:
                if dst == src:
                    continue
                if dst not in first_hop:
                    raise NetworkError(
                        f"node {dst} unreachable from node {src}")
                router.set_route(dst, first_hop[dst])
