"""The root complex: ports, routing, and timed load/store/DMA paths.

Topology per node::

    CPU ──(root port, no link)──┐
                                ├── root complex ── host DRAM
    GPU ──(PcieLink)────────────┤
    NIC ──(PcieLink)────────────┘

* An access whose target lives behind the *root* (host DRAM) crosses only the
  initiator's link.
* A peer-to-peer access (NIC ↔ GPU memory, GPU → NIC BAR) crosses the
  initiator's link *and* the owner's link.

The **P2P read pathology** the paper cites ([14], [15]; visible in Figs. 1b
and 4b as the bandwidth drop past 1 MiB) is modeled here: when a device reads
GPU memory as part of a large logical stream, the completion stream runs at a
degraded bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, Tuple

from ..errors import ConfigError, PcieError
from ..memory import AddressMap, DmaPayload, MemorySpace, Memory, MmioWindow
from ..sim import Event, Simulator
from ..units import GB_PER_S, MIB, NS
from .link import PcieLink, PcieLinkConfig
from .tlp import TLP_OVERHEAD_BYTES

#: The ``(link, upstream)`` hops one phase of an access crosses, in order.
Hops = Tuple[Tuple[PcieLink, bool], ...]


@dataclass(frozen=True)
class FabricConfig:
    """Node-level PCIe timing parameters."""

    host_memory_latency: float = 60 * NS    # DRAM access behind the root
    gpu_memory_latency: float = 120 * NS    # GPU DRAM behind its BAR1
    mmio_latency: float = 20 * NS           # device register file
    # Peer-to-peer read pathology (reads *from* GPU memory by another
    # device): completion bandwidth degrades progressively once a logical
    # stream reaches the threshold, down to a floor — matching the measured
    # behaviour of [14]/[15] that Figs. 1b/4b exhibit past 1 MiB.
    p2p_read_threshold: int = 1 * MIB
    p2p_read_floor: float = 0.9 * GB_PER_S
    p2p_pathology_enabled: bool = True

    def __post_init__(self) -> None:
        if min(self.host_memory_latency, self.gpu_memory_latency,
               self.mmio_latency) < 0:
            raise ConfigError("memory and MMIO latencies must be non-negative")
        if self.p2p_read_threshold <= 0 or self.p2p_read_floor <= 0:
            raise ConfigError("P2P read threshold and floor must be positive")


class PciePort:
    """An initiator/owner attachment point on the fabric."""

    def __init__(self, fabric: "PcieFabric", name: str,
                 link: Optional[PcieLink]) -> None:
        self.fabric = fabric
        self.name = name
        self.link = link  # None for the root port (CPU / host DRAM side)

    # Generators — run them with `yield from` inside a process.
    def write(self, addr: int, data: bytes | DmaPayload, start: int = 0,
              length: Optional[int] = None) -> Generator[Event, None, None]:
        """Write ``data``, or its ``length`` bytes from ``start`` (one DMA
        chunk, landed without slicing it out)."""
        return self.fabric._write(self, addr, data, start,
                                  len(data) if length is None else length)

    def read(self, addr: int, length: int,
             stream_total: Optional[int] = None,
             into: Optional[DmaPayload] = None
             ) -> Generator[Event, None, Optional[bytes]]:
        """Read ``length`` bytes: returned, or with ``into`` added to that
        payload (a memory's range pinned, not copied) and None returned."""
        return self.fabric._read(self, addr, length, stream_total, into)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PciePort {self.name}>"


class PcieFabric:
    """Routing and timing for one node's PCIe hierarchy."""

    def __init__(self, sim: Simulator, address_map: AddressMap,
                 config: FabricConfig | None = None) -> None:
        self.sim = sim
        self.address_map = address_map
        self.config = config or FabricConfig()
        self.ports: Dict[str, PciePort] = {}
        self._owners: Dict[int, PciePort] = {}  # id(target) -> owning port
        #: (initiator, owner) -> (request hops, completion hops).
        self._routes: Dict[Tuple[PciePort, PciePort], Tuple[Hops, Hops]] = {}
        self.root = PciePort(self, "root", link=None)
        self.ports["root"] = self.root

    # -- construction -------------------------------------------------------------
    def attach(self, name: str, link_config: PcieLinkConfig | None = None) -> PciePort:
        if name in self.ports:
            raise PcieError(f"duplicate port name {name!r}")
        port = PciePort(self, name, PcieLink(self.sim, name, link_config))
        self.ports[name] = port
        return port

    def claim(self, port: PciePort, target: object) -> None:
        """Declare that ``target`` (a Memory or MmioWindow already present in
        the address map) lives behind ``port``."""
        if port.name not in self.ports:
            raise PcieError(f"unknown port {port!r}")
        self._owners[id(target)] = port

    def owner_of(self, target: object) -> PciePort:
        try:
            return self._owners[id(target)]
        except KeyError:
            raise PcieError(f"no owner declared for {target!r}") from None

    # -- routing helpers -------------------------------------------------------------
    def _resolve(self, addr: int, length: int) -> Tuple[object, int, PciePort]:
        target, offset = self.address_map.resolve(addr, length)
        return target, offset, self.owner_of(target)

    def _target_latency(self, target: object) -> float:
        space: MemorySpace = getattr(target, "space")
        if space is MemorySpace.HOST_DRAM:
            return self.config.host_memory_latency
        if space is MemorySpace.GPU_DRAM:
            return self.config.gpu_memory_latency
        return self.config.mmio_latency

    def _route(self, src: PciePort, owner: PciePort) -> Tuple[Hops, Hops]:
        """The hops of a request from ``src`` to a target behind ``owner``,
        and of its completion; worked out once per port pair.

        A request goes up the initiator's link and down the owner's (the
        root port has no link); the completion retraces it in reverse, each
        hop in the other direction.  An access within one port crosses
        nothing."""
        route = self._routes.get((src, owner))
        if route is None:
            request: Hops = ()
            if src is not owner:
                request = tuple((link, up) for link, up in
                                ((src.link, True), (owner.link, False))
                                if link is not None)
            completion = tuple((link, not up) for link, up in reversed(request))
            route = self._routes[src, owner] = (request, completion)
        return route

    def _effective_read_bw(self, target: object, src: PciePort,
                           stream_total: Optional[int], base_bw: float) -> float:
        """Degrade completion bandwidth for large P2P reads of GPU memory."""
        if not self.config.p2p_pathology_enabled:
            return base_bw
        if getattr(target, "space", None) is not MemorySpace.GPU_DRAM:
            return base_bw
        if src is self.root or src.link is None:
            return base_bw  # host-initiated reads are unaffected
        total = stream_total if stream_total is not None else 0
        if total >= self.config.p2p_read_threshold:
            scaled = base_bw * self.config.p2p_read_threshold / (2 * total)
            return min(base_bw, max(self.config.p2p_read_floor, scaled))
        return base_bw

    # -- timed accesses ---------------------------------------------------------------
    # Each hop is serialized at the bottleneck rate (held one hop at a time,
    # store-and-forward at message granularity), plus the hop's latency.
    def _write(self, src: PciePort, addr: int, data: bytes | DmaPayload,
               start: int, nbytes: int) -> Generator:
        if not nbytes:
            raise PcieError("zero-length write")
        target, offset, owner = self._resolve(addr, nbytes)
        for link, up in self._route(src, owner)[0]:
            yield from link._send(up, nbytes, link.config.bandwidth)
        yield self.sim.timeout(self._target_latency(target))
        self._deliver_write(target, offset, data, start, nbytes)

    def _read(self, src: PciePort, addr: int, length: int,
              stream_total: Optional[int],
              into: Optional[DmaPayload]) -> Generator:
        if length <= 0:
            raise PcieError("non-positive read length")
        target, offset, owner = self._resolve(addr, length)
        request, completion = self._route(src, owner)
        if request:
            # Request phase: a header-only TLP per chunk of the first hop's
            # max_read_request.
            n_requests = -(-length // request[0][0].config.max_read_request)
            nbytes = max(TLP_OVERHEAD_BYTES * n_requests - TLP_OVERHEAD_BYTES, 1)
            for link, up in request:
                yield from link._send(up, nbytes, link.config.bandwidth)
        yield self.sim.timeout(self._target_latency(target))
        data = self._collect_read(target, offset, length, into)
        if completion:
            # Completion phase: data streams back, possibly degraded (P2P
            # pathology).
            cap = self._effective_read_bw(target, src, stream_total,
                                          request[0][0].config.bandwidth)
            for link, up in completion:
                yield from link._send(up, length, min(link.config.bandwidth, cap))
        return data

    # -- functional effects ----------------------------------------------------------
    @staticmethod
    def _deliver_write(target: object, offset: int, data: bytes | DmaPayload,
                       start: int, nbytes: int) -> None:
        """Land bytes ``[start, start + nbytes)`` of ``data``."""
        if isinstance(target, MmioWindow):
            # A window's write handlers parse real bytes.
            target.write(offset, bytes(data)[start:start + nbytes])
        elif isinstance(target, Memory):
            if isinstance(data, DmaPayload):
                data.copy_into(target.store, offset, start, nbytes)
            elif nbytes == len(data):
                target.store.write(offset, data)
            else:
                target.store.write(offset,
                                   memoryview(data)[start:start + nbytes])
            for hook in target.write_hooks:
                hook(offset, nbytes)
        else:  # pragma: no cover - map only holds these two kinds
            raise PcieError(f"unwritable target {target!r}")

    @staticmethod
    def _collect_read(target: object, offset: int, length: int,
                      into: Optional[DmaPayload]) -> Optional[bytes]:
        if isinstance(target, Memory):
            if into is None:
                return target.store.read(offset, length)
            into.pin(target.store, offset, length)
        elif isinstance(target, MmioWindow):
            data = target.read(offset, length)
            if into is None:
                return data
            into.append(data)
        else:  # pragma: no cover - map only holds these two kinds
            raise PcieError(f"unreadable target {target!r}")
        return None
