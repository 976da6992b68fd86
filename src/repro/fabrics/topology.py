"""Deterministic hierarchical topology builders.

Each builder derives a canonical shape from ``(kind, N)`` alone — the same
inputs always produce the same node ids, the same edge list in the same
order, and therefore (downstream) the same simulated schedule.  Host ids
are ``0..N-1``; switch ids start at ``N``.

Link classes carry different physical parameters (a core/global hop is
longer than an edge hop) and — via :attr:`NetLinkConfig.forward_time` —
different store-and-forward relay costs, which is exactly why the old
module-level ``FORWARD_TIME`` constant became a per-link config field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError, NetworkError
from ..network.link import FORWARD_TIME, NetLinkConfig
from ..units import GB_PER_S, NS


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def _mix(*vals: int) -> int:
    """Deterministic integer hash (splitmix-style) for routing tie-breaks;
    ``hash()`` is salted per interpreter run and must never be used."""
    h = 0x9E3779B97F4A7C15
    for v in vals:
        h ^= (v + 0x9E3779B97F4A7C15 + ((h << 6) & 0xFFFFFFFFFFFFFFFF)
              + (h >> 2)) & 0xFFFFFFFFFFFFFFFF
        h = (h * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class FabricConfig:
    """Physical parameters of one fabric instantiation."""

    bandwidth: float = 5.0 * GB_PER_S
    edge_latency: float = 550 * NS      # host <-> leaf switch
    local_latency: float = 550 * NS     # intra-pod / intra-group / torus
    global_latency: float = 1100 * NS   # core / inter-group long links
    edge_forward: float = FORWARD_TIME          # leaf-class relay cost
    core_forward: float = 1.5 * FORWARD_TIME    # core/global-class relay
    #: Receive-buffer credits per VC per link direction; ``None`` keeps
    #: the infinite-buffer fabric (bit-identical to no flow control).
    credits: Optional[int] = None
    #: Virtual channels: 2 covers the torus dateline scheme, 3 covers
    #: dragonfly Valiant (one bump per global hop).
    vcs: int = 3

    def __post_init__(self) -> None:
        # A fabric is valid iff every link class makes a valid link config;
        # reject it here rather than when instantiate() builds the links.
        for cls in ("edge", "local", "global"):
            try:
                self.link_config(cls)
            except NetworkError as exc:
                raise ConfigError(f"bad fabric config: {exc}") from None

    def link_config(self, cls: str) -> NetLinkConfig:
        if cls == "edge":
            latency, fwd = self.edge_latency, self.edge_forward
        elif cls in ("local", "torus"):
            latency, fwd = self.local_latency, self.edge_forward
        elif cls == "global":
            latency, fwd = self.global_latency, self.core_forward
        else:
            raise NetworkError(f"unknown link class {cls!r}")
        return NetLinkConfig(bandwidth=self.bandwidth, latency=latency,
                             forward_time=fwd, credits=self.credits,
                             vcs=self.vcs)


@dataclass(frozen=True)
class Edge:
    a: int
    b: int
    cls: str        # "edge" | "local" | "global" | "torus"


@dataclass
class Topology:
    """A node/switch graph plus the metadata its routing policy needs."""

    kind: str
    n: int                          # hosts, ids 0..n-1
    params: Dict[str, int]
    switches: List[int] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    #: host id -> the switch it attaches through (hosts ARE the routers
    #: on a torus, so there it maps to the host itself).
    attach: Dict[int, int] = field(default_factory=dict)

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    @property
    def num_links(self) -> int:
        return len(self.edges)

    def describe(self) -> str:
        p = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return (f"{self.kind}(N={self.n}, {p}; {self.num_switches} "
                f"switches, {self.num_links} links)")


@dataclass
class FatTreeTopology(Topology):
    # pods p x leaves l x hosts-per-leaf h; agg switches per pod; core
    # switches grouped per agg index (agg j of every pod meets group j).
    pods: int = 0
    leaves_per_pod: int = 0
    hosts_per_leaf: int = 0
    aggs_per_pod: int = 0
    cores_per_group: int = 0

    def leaf_id(self, pod: int, leaf: int) -> int:
        return self.n + pod * self.leaves_per_pod + leaf

    def agg_id(self, pod: int, agg: int) -> int:
        return (self.n + self.pods * self.leaves_per_pod
                + pod * self.aggs_per_pod + agg)

    def core_id(self, group: int, k: int) -> int:
        return (self.n + self.pods * self.leaves_per_pod
                + self.pods * self.aggs_per_pod
                + group * self.cores_per_group + k)

    def host_pod(self, host: int) -> int:
        return host // (self.leaves_per_pod * self.hosts_per_leaf)

    def host_leaf(self, host: int) -> int:
        return self.leaf_id(self.host_pod(host),
                            (host // self.hosts_per_leaf)
                            % self.leaves_per_pod)


@dataclass
class DragonflyTopology(Topology):
    groups: int = 0
    routers_per_group: int = 0      # "a" in the canonical parameterization
    hosts_per_router: int = 0       # "p"
    #: (group i, group j) -> switch id in group i owning the global link.
    global_owner: Dict[Tuple[int, int], int] = field(default_factory=dict)

    def switch_id(self, group: int, router: int) -> int:
        return self.n + group * self.routers_per_group + router

    def switch_group(self, switch: int) -> int:
        return (switch - self.n) // self.routers_per_group

    def host_switch(self, host: int) -> int:
        return self.n + host // self.hosts_per_router

    def host_group(self, host: int) -> int:
        return host // (self.routers_per_group * self.hosts_per_router)


@dataclass
class TorusTopology(Topology):
    dims: Tuple[int, ...] = ()

    def coords(self, node: int) -> Tuple[int, ...]:
        out = []
        for size in reversed(self.dims):
            out.append(node % size)
            node //= size
        return tuple(reversed(out))

    def node_at(self, coords: Tuple[int, ...]) -> int:
        node = 0
        for c, size in zip(coords, self.dims):
            node = node * size + c
        return node


# -- builders ------------------------------------------------------------------------
def fat_tree(n: int) -> FatTreeTopology:
    """Three-level Clos: pods of (leaf, agg) layers under core groups.

    The shape is derived canonically from N: hosts-per-leaf is the
    smallest power of two >= cbrt(N), then leaves-per-pod and pods split
    the rest — N must be a power of two >= 8.
    """
    if n < 8 or not _is_pow2(n):
        raise NetworkError(f"fat-tree needs a power-of-two N >= 8, got {n}")
    h = 1
    while h * h * h < n:
        h *= 2
    m = n // h                      # leaves total = l * p
    l = 1
    while l * l < m:
        l *= 2
    p = m // l
    if p * l * h != n:
        raise NetworkError(f"fat-tree cannot factor N={n}")  # pragma: no cover
    aggs = max(2, l // 2)
    cpg = max(2, p // 2)
    topo = FatTreeTopology(kind="fat-tree", n=n,
                           params={"pods": p, "leaves_per_pod": l,
                                   "hosts_per_leaf": h, "aggs_per_pod": aggs,
                                   "cores_per_group": cpg},
                           pods=p, leaves_per_pod=l, hosts_per_leaf=h,
                           aggs_per_pod=aggs, cores_per_group=cpg)
    for pod in range(p):
        for leaf in range(l):
            lid = topo.leaf_id(pod, leaf)
            topo.switches.append(lid)
            for k in range(h):
                host = (pod * l + leaf) * h + k
                topo.edges.append(Edge(host, lid, "edge"))
                topo.attach[host] = lid
    for pod in range(p):
        for agg in range(aggs):
            aid = topo.agg_id(pod, agg)
            topo.switches.append(aid)
            for leaf in range(l):
                topo.edges.append(Edge(topo.leaf_id(pod, leaf), aid, "local"))
    for group in range(aggs):
        for k in range(cpg):
            cid = topo.core_id(group, k)
            topo.switches.append(cid)
            for pod in range(p):
                topo.edges.append(Edge(topo.agg_id(pod, group), cid,
                                       "global"))
    return topo


def dragonfly(n: int) -> DragonflyTopology:
    """Groups of all-to-all routers with one global link per group pair.

    Canonical derivation: groups g is the smallest power of two with
    ``g * (n/g)`` balanced so routers-per-group a and hosts-per-router p
    are as square as possible; every distinct group pair gets exactly one
    global link, spread round-robin over the group's routers.
    """
    if n < 16 or not _is_pow2(n):
        raise NetworkError(f"dragonfly needs a power-of-two N >= 16, got {n}")
    g = 1
    while g * g * g < n:            # aim for g ~ a ~ p
        g *= 2
    m = n // g
    a = 1
    while a * a < m:
        a *= 2
    p = m // a
    if g * a * p != n:
        raise NetworkError(f"dragonfly cannot factor N={n}")  # pragma: no cover
    topo = DragonflyTopology(kind="dragonfly", n=n,
                             params={"groups": g, "routers_per_group": a,
                                     "hosts_per_router": p},
                             groups=g, routers_per_group=a,
                             hosts_per_router=p)
    for gi in range(g):
        for si in range(a):
            sid = topo.switch_id(gi, si)
            topo.switches.append(sid)
            for k in range(p):
                host = (gi * a + si) * p + k
                topo.edges.append(Edge(host, sid, "edge"))
                topo.attach[host] = sid
        for s1 in range(a):
            for s2 in range(s1 + 1, a):
                topo.edges.append(Edge(topo.switch_id(gi, s1),
                                       topo.switch_id(gi, s2), "local"))
    # One global link per group pair, owner router = pair-counter % a on
    # each side (deterministic round-robin).
    counter = [0] * g
    for g1 in range(g):
        for g2 in range(g1 + 1, g):
            s1 = counter[g1] % a
            s2 = counter[g2] % a
            counter[g1] += 1
            counter[g2] += 1
            topo.global_owner[(g1, g2)] = topo.switch_id(g1, s1)
            topo.global_owner[(g2, g1)] = topo.switch_id(g2, s2)
            topo.edges.append(Edge(topo.switch_id(g1, s1),
                                   topo.switch_id(g2, s2), "global"))
    return topo


def torus(n: int, dims: Optional[Tuple[int, ...]] = None) -> TorusTopology:
    """2D/3D torus; hosts are the routers (no separate switch layer).

    Canonical derivation: a cube if N has an integer cube root >= 4,
    otherwise the most-square power-of-two 2D grid.
    """
    if n < 8 or not _is_pow2(n):
        raise NetworkError(f"torus needs a power-of-two N >= 8, got {n}")
    if dims is None:
        c = round(n ** (1 / 3))
        if c >= 4 and c * c * c == n:
            dims = (c, c, c)
        else:
            r = 1
            while r * r < n:
                r *= 2
            dims = (n // r, r) if r * r != n else (r, r)
    total = 1
    for d in dims:
        total *= d
        if d < 2:
            raise NetworkError(f"torus dimension {d} too small")
    if total != n:
        raise NetworkError(f"torus dims {dims} do not cover N={n}")
    topo = TorusTopology(kind="torus", n=n,
                         params={f"dim{i}": d for i, d in enumerate(dims)},
                         dims=tuple(dims))
    for node in range(n):
        topo.attach[node] = node
        coords = topo.coords(node)
        for axis, size in enumerate(dims):
            if size == 2 and coords[axis] == 1:
                continue            # avoid the duplicate wrap link
            nxt = list(coords)
            nxt[axis] = (coords[axis] + 1) % size
            topo.edges.append(Edge(node, topo.node_at(tuple(nxt)), "torus"))
    return topo


_BUILDERS = {"fat-tree": fat_tree, "dragonfly": dragonfly, "torus": torus}

TOPOLOGY_KINDS = tuple(sorted(_BUILDERS))


def build_topology(kind: str, n: int, **params) -> Topology:
    try:
        builder = _BUILDERS[kind]
    except KeyError:
        raise NetworkError(f"unknown topology {kind!r} "
                           f"(one of {TOPOLOGY_KINDS})") from None
    return builder(n, **params)


__all__ = ["Edge", "FabricConfig", "DragonflyTopology", "FatTreeTopology",
           "Topology", "TorusTopology", "TOPOLOGY_KINDS", "build_topology",
           "dragonfly", "fat_tree", "torus", "_mix"]
