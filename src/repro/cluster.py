"""Testbeds: the paper's two-node pairs (§V) and N-node topologies.

* :func:`build_extoll_cluster` — N nodes with EXTOLL Galibier cards,
* :func:`build_ib_cluster` — two nodes with InfiniBand 4X FDR HCAs.

Both give you a :class:`Cluster` holding the shared simulator, the nodes,
and the network fabric between them.  The default is the paper's testbed —
two nodes, one cable — but the EXTOLL builder also wires

* ``ring``   — node i cabled to i±1; non-adjacent traffic is relayed
  store-and-forward around the ring,
* ``full``   — a cable between every pair, single-hop everywhere,
* ``switch`` — a star through a central store-and-forward switch
  (every path is exactly two hops).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .errors import ConfigError
from .network import NetworkFabric
from .node import Node, NodeConfig
from .sim import Simulator

#: Topology names accepted by :func:`build_extoll_cluster`.
TOPOLOGIES = ("pair", "ring", "full", "switch")


@dataclass
class Cluster:
    sim: Simulator
    nodes: List[Node]
    net: NetworkFabric
    topology: str = "pair"

    @property
    def a(self) -> Node:
        return self.nodes[0]

    @property
    def b(self) -> Node:
        return self.nodes[1]

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def __len__(self) -> int:
        return len(self.nodes)

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)


def _base_cluster(node_config: Optional[NodeConfig], sim: Optional[Simulator],
                  num_nodes: int, topology: str) -> Cluster:
    if num_nodes < 2:
        raise ConfigError(f"a cluster needs at least 2 nodes, got {num_nodes}")
    sim = sim or Simulator()
    net = NetworkFabric(sim)
    nodes = [Node(sim, i, node_config) for i in range(num_nodes)]
    return Cluster(sim, nodes, net, topology)


def resolve_topology(topology: str, num_nodes: int) -> str:
    """The topology ``num_nodes`` nodes are cabled as; ``ConfigError`` if
    ``topology`` cannot cable them."""
    if topology == "auto":
        topology = "pair" if num_nodes == 2 else "ring"
    if topology not in TOPOLOGIES:
        raise ConfigError(
            f"unknown topology {topology!r} (choose from {TOPOLOGIES})")
    if topology == "pair" and num_nodes != 2:
        raise ConfigError("'pair' topology is exactly two nodes")
    # A two-node ring would need a duplicate cable; it degenerates to the
    # paper's back-to-back pair, as does a two-node full mesh.
    if num_nodes == 2 and topology in ("ring", "full"):
        topology = "pair"
    return topology


def _wire_topology(cluster: Cluster, topology: str, link_config) -> list:
    """Cable the fabric and return each node's NIC attachment (an Endpoint
    for single-link nodes, a RouterEndpoint for multi-link ones)."""
    net, n = cluster.net, len(cluster.nodes)
    if topology == "pair":
        ep_a, ep_b = net.connect(0, 1, link_config)
        return [ep_a, ep_b]
    if topology == "ring":
        for i in range(n):
            net.connect(i, (i + 1) % n, link_config)
        attachments = [net.make_router(i) for i in range(n)]
    elif topology == "full":
        for i in range(n):
            for j in range(i + 1, n):
                net.connect(i, j, link_config)
        attachments = [net.make_router(i) for i in range(n)]
    elif topology == "switch":
        switch_id = n  # an id no NIC uses: every arriving packet is transit
        for i in range(n):
            net.connect(i, switch_id, link_config)
        net.make_router(switch_id)
        attachments = [net.endpoint(i) for i in range(n)]
    else:  # pragma: no cover - resolve_topology already validated
        raise ConfigError(f"unknown topology {topology!r}")
    net.compute_routes()
    return attachments


def build_extoll_cluster(node_config: Optional[NodeConfig] = None,
                         nic_config=None,
                         sim: Optional[Simulator] = None,
                         num_nodes: int = 2,
                         topology: str = "auto") -> Cluster:
    """``num_nodes`` nodes with EXTOLL cards on the requested topology.

    The default (two nodes, ``pair``) is the paper's testbed: one cable,
    no routing anywhere on the path.
    """
    from .extoll import ExtollConfig

    nic_config = nic_config or ExtollConfig()
    topology = resolve_topology(topology, num_nodes)
    cluster = _base_cluster(node_config, sim, num_nodes, topology)
    attachments = _wire_topology(cluster, topology, nic_config.link)
    for node, attachment in zip(cluster.nodes, attachments):
        node.attach_extoll(attachment, nic_config)
    return cluster


def build_ib_cluster(node_config: Optional[NodeConfig] = None,
                     nic_config=None,
                     sim: Optional[Simulator] = None) -> Cluster:
    """Two nodes with InfiniBand 4X FDR HCAs on one subnet."""
    from .ib import IbConfig

    nic_config = nic_config or IbConfig()
    cluster = _base_cluster(node_config, sim, 2, "pair")
    ep_a, ep_b = cluster.net.connect(0, 1, nic_config.link)
    cluster.nodes[0].attach_ib(ep_a, nic_config)
    cluster.nodes[1].attach_ib(ep_b, nic_config)
    return cluster
