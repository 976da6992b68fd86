"""Per-packet routing policies over :class:`PolicyRouter`.

Every policy implements ``select(router, packet) -> peer_id`` and stamps
``packet.meta["vc"]`` for the chosen hop.  All choices are deterministic
functions of (topology, packet identity, simulator-visible congestion
state): spreading decisions use the salt-free :func:`~.topology._mix`
hash of ``(src, dst, flow id)`` — never ``hash()`` or ``Packet.seq`` —
so the same seed replays the exact hop sequence bit-identically.

Deadlock avoidance is by virtual channels:

* torus dimension-order uses the classic dateline scheme — packets start
  each ring on VC0 and switch to VC1 at the wrap edge, so neither VC's
  channel-dependency graph closes a cycle;
* fat-tree up/down is cycle-free by construction (VC0 only);
* dragonfly bumps the VC at every global-link traversal (minimal needs
  2 VCs, Valiant/UGAL need 3 — the :class:`~.topology.FabricConfig`
  default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import NetworkError
from ..network.fabric import Endpoint, NetworkFabric, RouterEndpoint
from ..network.packet import Packet
from ..sim import Simulator
from .topology import (DragonflyTopology, FabricConfig, FatTreeTopology,
                       Topology, TorusTopology, _mix)

ROUTINGS = ("minimal", "valiant", "ugal")


class PolicyRouter(RouterEndpoint):
    """A switch whose next hop comes from a routing policy, per packet."""

    def __init__(self, sim: Simulator, node_id: int,
                 forward_time: Optional[float] = None,
                 policy=None) -> None:
        super().__init__(sim, node_id, forward_time)
        self.policy = policy

    def route(self, packet: Packet) -> Endpoint:
        peer = self.policy.select(self, packet)
        try:
            return self._links[peer]
        except KeyError:
            raise NetworkError(
                f"policy routed node {self.node_id} -> {peer} but no such "
                f"link exists") from None


class DimensionOrderPolicy:
    """Torus: resolve coordinates axis by axis, minimal direction, ties
    toward +; dateline VC switch at each ring's wrap edge."""

    def __init__(self, topo: TorusTopology) -> None:
        self.topo = topo

    def select(self, router: PolicyRouter, packet: Packet) -> int:
        topo = self.topo
        here = topo.coords(router.node_id)
        there = topo.coords(packet.dst_node)
        meta = packet.meta
        for axis, size in enumerate(topo.dims):
            if here[axis] == there[axis]:
                continue
            fwd = (there[axis] - here[axis]) % size
            back = (here[axis] - there[axis]) % size
            step = 1 if fwd <= back else -1
            nxt = list(here)
            nxt[axis] = (here[axis] + step) % size
            if meta.get("to_axis") != axis:
                meta["to_axis"] = axis
                meta["to_vc"] = 0
            if ((step == 1 and here[axis] == size - 1)
                    or (step == -1 and here[axis] == 0)):
                meta["to_vc"] = 1           # crossing the dateline
            meta["vc"] = meta["to_vc"]
            return topo.node_at(tuple(nxt))
        raise NetworkError(
            f"dimension-order asked to route a packet already at its "
            f"destination {packet.dst_node}")  # pragma: no cover


class UpDownPolicy:
    """Fat-tree: climb toward a deterministic-ECMP core, then the unique
    down path.  Cycle-free, single VC."""

    def __init__(self, topo: FatTreeTopology) -> None:
        self.topo = topo

    def select(self, router: PolicyRouter, packet: Packet) -> int:
        topo = self.topo
        sid = router.node_id
        dst = packet.dst_node
        fid = _mix(packet.src_node, dst, packet.meta.get("fid", 0))
        base = topo.n
        nleaf = topo.pods * topo.leaves_per_pod
        nagg = topo.pods * topo.aggs_per_pod
        if sid < base + nleaf:                              # leaf switch
            if topo.host_leaf(dst) == sid:
                return dst                                  # down to host
            pod = (sid - base) // topo.leaves_per_pod
            return topo.agg_id(pod, fid % topo.aggs_per_pod)
        if sid < base + nleaf + nagg:                       # agg switch
            idx = sid - base - nleaf
            pod, group = divmod(idx, topo.aggs_per_pod)
            if topo.host_pod(dst) == pod:
                return topo.host_leaf(dst)                  # down
            return topo.core_id(group, fid % topo.cores_per_group)
        group = (sid - base - nleaf - nagg) // topo.cores_per_group
        return topo.agg_id(topo.host_pod(dst), group)       # core: down


class DragonflyPolicy:
    """Dragonfly minimal / Valiant / UGAL.

    The group itinerary is fixed once at the source switch (stored in
    ``meta["df_route"]``); UGAL compares the credit occupancy of the
    first hop of the minimal vs the Valiant path and needs flow control
    enabled to sense anything (it degrades to minimal otherwise).
    """

    UGAL_BIAS = 1                       # hops of slack granted to minimal

    def __init__(self, topo: DragonflyTopology, mode: str = "minimal") -> None:
        if mode not in ROUTINGS:
            raise NetworkError(f"unknown dragonfly routing {mode!r}")
        self.topo = topo
        self.mode = mode

    # -- congestion sensing -------------------------------------------------
    @staticmethod
    def _depth(router: PolicyRouter, peer: int) -> int:
        ep = router._links.get(peer)
        if ep is None or ep.link.flow is None:
            return 0
        return (ep.link.flow.in_flight(ep.side)
                + ep.link.flow.waiting(ep.side))

    def _first_hop(self, router: PolicyRouter, target_group: int) -> int:
        """The peer this switch would use heading for ``target_group``."""
        topo = self.topo
        myg = topo.switch_group(router.node_id)
        if target_group == myg:
            return router.node_id
        owner = topo.global_owner[(myg, target_group)]
        if owner == router.node_id:
            return topo.global_owner[(target_group, myg)]
        return owner

    def _itinerary(self, router: PolicyRouter, packet: Packet,
                   myg: int, dg: int) -> List[int]:
        topo = self.topo
        if self.mode == "minimal" or topo.groups <= 3:
            return [dg]
        others = [g for g in range(topo.groups) if g not in (myg, dg)]
        mid = others[_mix(packet.src_node, packet.dst_node,
                          packet.meta.get("fid", 0)) % len(others)]
        if self.mode == "valiant":
            return [mid, dg]
        q_min = self._depth(router, self._first_hop(router, dg))
        q_val = self._depth(router, self._first_hop(router, mid))
        if q_min <= 2 * q_val + self.UGAL_BIAS:
            return [dg]
        return [mid, dg]

    def select(self, router: PolicyRouter, packet: Packet) -> int:
        topo = self.topo
        sid = router.node_id
        dst = packet.dst_node
        meta = packet.meta
        if topo.host_switch(dst) == sid:
            return dst
        myg = topo.switch_group(sid)
        dg = topo.host_group(dst)
        if "df_route" not in meta:
            meta["df_route"] = self._itinerary(router, packet, myg, dg)
            meta["df_vc"] = 0
        route = meta["df_route"]
        while route and route[0] == myg:
            route.pop(0)                # waypoint reached
        if not route:
            meta["vc"] = meta["df_vc"]
            return topo.host_switch(dst)    # local hop to dst's switch
        target = route[0]
        owner = topo.global_owner[(myg, target)]
        if owner == sid:
            meta["vc"] = meta["df_vc"]      # the global hop itself
            meta["df_vc"] += 1              # everything after rides higher
            return topo.global_owner[(target, myg)]
        meta["vc"] = meta["df_vc"]
        return owner                        # local hop to the gateway


def default_policy(topo: Topology, routing: str = "minimal"):
    if isinstance(topo, TorusTopology):
        return DimensionOrderPolicy(topo)
    if isinstance(topo, FatTreeTopology):
        return UpDownPolicy(topo)
    if isinstance(topo, DragonflyTopology):
        return DragonflyPolicy(topo, routing)
    raise NetworkError(f"no routing policy for topology {topo.kind!r}")


@dataclass
class FabricInstance:
    """One simulated fabric: topology + wired links + policy routers."""

    sim: Simulator
    topology: Topology
    config: FabricConfig
    net: NetworkFabric
    policy: object
    routers: Dict[int, PolicyRouter] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.topology.n

    def attachment(self, host: int):
        return self.net.attachment(host)

    # -- congestion stats ---------------------------------------------------
    def flow_stats(self) -> Dict[str, float]:
        stalls = stall_time = in_flight = 0
        for link in self.net.links().values():
            if link.flow is None:
                continue
            stalls += link.flow.total_stalls
            stall_time += link.flow.total_stall_time
            in_flight += (link.flow.in_flight(0) + link.flow.in_flight(1))
        return {"stalls": stalls, "stall_time": stall_time,
                "in_flight": in_flight}

    def link_packets(self) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Per-link (dir0, dir1) packet counts — the replay fingerprint."""
        return {key: tuple(link.packets_sent)
                for key, link in sorted(self.net.links().items())}


def instantiate(sim: Simulator, topo: Topology,
                config: Optional[FabricConfig] = None,
                routing: str = "minimal") -> FabricInstance:
    """Wire ``topo`` into ``sim``: links with per-class configs, a policy
    router on every switch (every host, on a torus), and causal actor
    labels on each link side so credit stalls can be blamed."""
    config = config or FabricConfig()
    net = NetworkFabric(sim)
    for e in topo.edges:
        net.connect(e.a, e.b, config.link_config(e.cls))
    policy = default_policy(topo, routing)
    inst = FabricInstance(sim=sim, topology=topo, config=config, net=net,
                          policy=policy)
    router_nodes = (list(range(topo.n)) if isinstance(topo, TorusTopology)
                    else list(topo.switches))

    def factory(s, node_id, forward_time):
        return PolicyRouter(s, node_id, forward_time, policy)

    for nid in router_nodes:
        inst.routers[nid] = net.make_router(nid, forward_time=None,
                                            factory=factory)

    def label(nid: int) -> str:
        return f"n{nid}" if nid < topo.n else f"fab.s{nid}"

    for (lo, hi), link in net.links().items():
        link.actor_labels[0] = label(lo)
        link.actor_labels[1] = label(hi)
    return inst


__all__ = ["ROUTINGS", "DimensionOrderPolicy", "DragonflyPolicy",
           "FabricInstance", "PolicyRouter", "UpDownPolicy",
           "default_policy", "instantiate"]
