"""The EXTOLL NIC: BAR, ports, driver-level resource management.

Construction/wiring follows the driver flow the paper describes:

1. at *driver load*, notification-queue storage is pre-allocated in kernel
   (host) memory (§III-B / §VI — the placement GPU polling suffers from),
2. ``open_port()`` assigns a requester page in the BAR plus pre-allocated
   notification queues to the new port,
3. ``register_memory()`` runs physical ranges through the ATU, yielding the
   NLAs that put/get descriptors carry — including GPU BAR1 ranges, which is
   the GPUDirect driver patch (§III-C).

Writing a complete 24-byte descriptor into a port's requester page hands it
to the RMA unit; the write of the final 64-bit word triggers execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import RmaError
from ..memory import AddressRange, Allocator, MmioWindow
from ..network import Endpoint
from ..pcie import PcieFabric, PciePort
from ..sim import Simulator
from .atu import Atu
from .config import ExtollConfig
from .descriptor import WR_BYTES, RmaWorkRequest
from .notification import NotificationQueue
from .rma import RmaUnit


@dataclass
class RmaPort:
    """An opened RMA port: its BAR page and notification queues."""

    port_id: int
    page_addr: int                       # node-physical address of the page
    requester_queue: NotificationQueue
    completer_queue: NotificationQueue
    responder_queue: NotificationQueue


class ExtollNic:
    """One EXTOLL card in a node."""

    def __init__(self, sim: Simulator, node_id: int, name: str = "",
                 config: Optional[ExtollConfig] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"extoll{node_id}"
        self.config = config or ExtollConfig()
        self.atu = Atu(f"{self.name}.atu")
        self.bar: Optional[MmioWindow] = None
        self.rma: Optional[RmaUnit] = None
        self._ports: Dict[int, RmaPort] = {}
        self._next_port = 0
        self._kernel_alloc: Optional[Allocator] = None
        # Batched-doorbell stats (engine's MMIO-coalescing path).
        self.batch_doorbells = 0
        self.batch_descriptors = 0
        # Single descriptors pushed through the BAR (host-assist control).
        self.wr_posts = 0
        # Counter-doorbell stats + the triggered-operations unit, installed
        # by repro.triggered.TriggeredUnit when a model opts in.
        self.trigger_doorbells = 0
        self.triggered = None

    # -- wiring (driver load) ------------------------------------------------------
    def attach(self, fabric: PcieFabric, bar_base: int,
               kernel_alloc: Allocator, endpoint: Endpoint) -> PciePort:
        """Install the NIC into a node: map the BAR, start the RMA unit, and
        reserve kernel-space notification storage."""
        if self.bar is not None:
            raise RmaError(f"{self.name} is already attached")
        self.bar = MmioWindow(f"{self.name}.bar", bar_base, self.config.bar_size)
        fabric.address_map.add(self.bar)
        pcie_port = fabric.attach(self.name)
        fabric.claim(pcie_port, self.bar)
        self._kernel_alloc = kernel_alloc
        self.rma = RmaUnit(self.sim, self, self.config, pcie_port, self.atu,
                           endpoint)
        return pcie_port

    def _require_attached(self) -> None:
        if self.bar is None or self.rma is None or self._kernel_alloc is None:
            raise RmaError(f"{self.name} is not attached to a node")

    # -- ports ---------------------------------------------------------------------
    def open_port(self, port_id: Optional[int] = None,
                  notification_alloc: Optional[Allocator] = None) -> RmaPort:
        """Open an RMA port: assign a BAR requester page and notification
        queues.  ``port_id`` may be pinned so both ends of a connection use
        matching ids (completer notifications are routed by port id).

        ``notification_alloc`` overrides where the port's notification
        queues live.  The *stock* driver pins them in kernel host memory at
        load time (§III-B) — the placement §VI criticizes.  Passing a GPU
        allocator here models the paper's proposed future API in which
        notification structures can live in device memory.
        """
        self._require_attached()
        if port_id is None:
            while self._next_port in self._ports:
                self._next_port += 1
            port_id = self._next_port
        if port_id in self._ports:
            raise RmaError(f"port {port_id} already open on {self.name}")
        if not 0 <= port_id < self.config.max_ports:
            raise RmaError(f"port id {port_id} out of range")

        page_addr = (self.bar.range.base + self.config.requester_page_offset
                     + port_id * self.config.requester_page_size)
        alloc = notification_alloc or self._kernel_alloc
        queues = []
        for kind in ("req", "cmpl", "resp"):
            entries = self.config.notification_queue_entries
            footprint = NotificationQueue.footprint_bytes(entries)
            rng = alloc.alloc(footprint)
            queues.append(NotificationQueue(
                f"{self.name}.p{port_id}.{kind}", alloc.memory,
                rng.base, entries, sim=self.sim))
        port = RmaPort(port_id, page_addr, *queues)
        self._ports[port_id] = port

        page_off = page_addr - self.bar.range.base
        self.bar.on_write(page_off, self.config.requester_page_size,
                          self._make_page_handler(page_off))
        return port

    def _make_page_handler(self, page_off: int):
        cfg = self.config

        def handler(rel_off: int, data: bytes) -> None:
            trc = self.sim.tracer
            if rel_off >= cfg.batch_doorbell_offset:
                # Batch doorbell: the page's staging region holds `count`
                # descriptors; one control write posts them all (the
                # engine's MMIO coalescing — one TLP instead of N).
                count = int.from_bytes(self.bar.store.read(
                    page_off + cfg.batch_doorbell_offset, 8), "little")
                if not 1 <= count <= cfg.max_batch_descriptors:
                    raise RmaError(
                        f"{self.name}: batch doorbell count {count} outside "
                        f"1..{cfg.max_batch_descriptors}")
                base = page_off + cfg.batch_region_offset
                wrs = [RmaWorkRequest.decode(
                           self.bar.store.read(base + i * WR_BYTES, WR_BYTES))
                       for i in range(count)]
                if trc.enabled:
                    trc.instant("rma", "batch-doorbell",
                                track=f"{self.name}.bar", descriptors=count)
                    trc.metrics.counter("rma.batch_doorbells").inc()
                    trc.metrics.counter("rma.wr_triggers").inc(count)
                self.batch_doorbells += 1
                self.batch_descriptors += count
                self.rma.post_many(wrs)
            elif rel_off >= cfg.trigger_doorbell_offset:
                # Counter doorbell: one 8-byte store ticks a triggered-
                # operations counter — (counter_id << 16) | amount.  The
                # triggered unit pays its decode stage and fires any chains
                # whose thresholds the tick crosses.
                word = int.from_bytes(self.bar.store.read(
                    page_off + cfg.trigger_doorbell_offset, 8), "little")
                if self.triggered is None:
                    raise RmaError(
                        f"{self.name}: counter doorbell rung but no "
                        f"triggered unit is attached")
                if trc.enabled:
                    trc.metrics.counter("rma.trigger_doorbells").inc()
                self.trigger_doorbells += 1
                self.triggered.on_doorbell(word >> 16, word & 0xFFFF)
            elif rel_off < WR_BYTES <= rel_off + len(data):
                # The descriptor is executed when its final word arrives —
                # whether posted as one 24-byte burst (CPU,
                # write-combining), one wide store, or three 64-bit stores
                # (a GPU thread).  Writes into the batch staging region
                # above WR_BYTES never trigger this path.
                raw = self.bar.store.read(page_off, WR_BYTES)
                wr = RmaWorkRequest.decode(raw)
                if trc.enabled:
                    trc.instant("rma", "wr-trigger", track=f"{self.name}.bar",
                                port=wr.port, op=wr.op.name.lower(),
                                bytes=wr.size)
                    trc.metrics.counter("rma.wr_triggers").inc()
                self.wr_posts += 1
                self.rma.post(wr)
        return handler

    def port_state(self, port_id: int) -> RmaPort:
        try:
            return self._ports[port_id]
        except KeyError:
            raise RmaError(
                f"{self.name}: packet/descriptor for unopened port {port_id}"
            ) from None

    # -- registration -----------------------------------------------------------------
    def register_memory(self, phys: AddressRange) -> AddressRange:
        """ATU registration; works for host DRAM and (patched driver) GPU
        BAR1 ranges alike.  Returns the NLA window."""
        self._require_attached()
        return self.atu.register(phys)
