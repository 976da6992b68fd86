"""The RMA unit: requester, completer, and responder pipelines (§III-A).

* **Requester** — consumes work requests posted to the BAR requester pages,
  starts the data transfer, and emits a requester notification once the
  transfer has been started (signalling it can accept another WR).
* **Completer** — handles arriving packets: writes put payloads (and get
  responses) into registered memory via DMA and emits completer
  notifications.
* **Responder** — answers get requests by reading the requested data and
  sending it back; only active for gets.

The unit validates/translates descriptors serially at the FPGA clock but
overlaps the DMA payload movement of consecutive requests (bounded by the
NIC's DMA contexts), which is what lets the message rate scale with
connection pairs in Fig. 2.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..errors import RmaError
from ..network import Endpoint, Packet, PacketKind
from ..pcie import DmaConfig, DmaEngine, PciePort
from ..sim import NULL_SPAN, Simulator, Store
from .atu import Atu
from .config import ExtollConfig
from .descriptor import NotifyFlags, RmaOp, RmaWorkRequest
from .notification import Notification, NotificationQueue, RmaUnitKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .nic import ExtollNic, RmaPort


class RmaUnit:
    """The three hardware units plus their interconnecting queues."""

    def __init__(self, sim: Simulator, nic: "ExtollNic", config: ExtollConfig,
                 pcie_port: PciePort, atu: Atu, endpoint: Endpoint) -> None:
        self.sim = sim
        self.nic = nic
        self.config = config
        self.atu = atu
        self.endpoint = endpoint
        # Payload DMA pipelines several transfers; notifications use their
        # own small engine so they never stall payload movement.
        self.dma = DmaEngine(sim, pcie_port, f"{nic.name}.dma",
                             DmaConfig(contexts=4))
        self.notif_dma = DmaEngine(sim, pcie_port, f"{nic.name}.notif-dma",
                                   DmaConfig(contexts=2))
        self.req_inbox: Store = Store(sim, name=f"{nic.name}.req-inbox")
        self._seq: Dict[int, int] = {}  # per-port notification sequence
        # Stats.
        self.puts_started = 0
        self.gets_started = 0
        self.packets_handled = 0
        self.notifications_written = 0
        self.corrupt_dropped = 0
        self.batched_wrs = 0
        # Hooks invoked (plain callbacks, no simulated cost) after a put's
        # payload DMA completes; the reliability layer registers duplicate
        # detectors here.  Empty by default: one truthiness check per put.
        self.put_listeners: list = []
        # A bad descriptor or packet fails only its own per-WR/per-packet
        # process, never these loops: the model's RMA error notification.
        sim.process(self._requester_loop(), name=f"{nic.name}.requester")
        sim.process(self._receive_loop(), name=f"{nic.name}.rx")

    # -- posting (called from the BAR write handler) -----------------------------
    def post(self, wr: RmaWorkRequest) -> None:
        self.req_inbox.put(wr)

    def post_many(self, wrs) -> None:
        """Post one batch-doorbell's worth of descriptors, in order.

        Each still pays the serial ``requester_time`` decode in
        :meth:`_requester_loop`; the batch only saves the *MMIO* cost of
        ringing them individually.
        """
        for wr in wrs:
            self.req_inbox.put(wr)
        self.batched_wrs += len(wrs)

    def _next_seq(self, port: int) -> int:
        self._seq[port] = self._seq.get(port, 0) + 1
        return self._seq[port]

    # -- notifications ------------------------------------------------------------
    def _notify(self, queue: Optional[NotificationQueue], unit: RmaUnitKind,
                port: int, size: int) -> None:
        """Spawn the DMA write of one notification record."""
        if queue is None:
            return
        record = Notification(unit, port, size, self._next_seq(port))
        slot = queue.hw_claim_slot()

        def write():
            yield from self.notif_dma.write(slot, record.encode())
            self.notifications_written += 1
            trc = self.sim.tracer
            if trc.enabled:
                trc.metrics.counter(f"rma.notifications.{unit.name.lower()}").inc()

        self.sim.process(write(), name=f"{self.nic.name}.notif")

    # -- requester ------------------------------------------------------------------
    def _requester_loop(self):
        trc = self.sim.tracer
        track = f"{self.nic.name}.requester"
        while True:
            wr = yield self.req_inbox.get()
            # The serial descriptor decode/validate stage; payload movement
            # overlaps in the spawned execute processes (dma/net spans).
            span = (trc.begin("rma", f"wr-{wr.op.name.lower()}", track=track,
                              port=wr.port, bytes=wr.size)
                    if trc.enabled else NULL_SPAN)
            yield self.sim.timeout(self.config.requester_time)
            span.end()
            port = self.nic.port_state(wr.port)
            if wr.op is RmaOp.PUT:
                self.puts_started += 1
                if trc.enabled:
                    trc.metrics.counter("rma.puts").inc()
                self.sim.process(self._execute_put(wr, port),
                                 name=f"{self.nic.name}.put")
            elif wr.op is RmaOp.GET:
                self.gets_started += 1
                if trc.enabled:
                    trc.metrics.counter("rma.gets").inc()
                self.sim.process(self._execute_get(wr, port),
                                 name=f"{self.nic.name}.get")
            else:  # pragma: no cover - decode() already validates
                raise RmaError(f"unknown op {wr.op}")

    def _execute_put(self, wr: RmaWorkRequest, port: "RmaPort"):
        trc = self.sim.tracer
        causal = trc.wants("causal")
        src_phys = self.atu.translate(wr.src_nla, wr.size)
        data = yield from self.dma.read(src_phys, wr.size)
        if causal:
            # The address key (dst node, dst NLA) is the causal identity both
            # endpoints can compute without any descriptor/wire change.
            trc.flow_event("txr", f"{self.nic.name}.rma",
                           addr=(wr.dst_node, wr.dst_nla), bytes=wr.size)
        yield from self.endpoint.send(Packet(
            PacketKind.RMA_PUT, self.nic.node_id, wr.dst_node,
            self.config.packet_header_bytes, data,
            meta={"dst_nla": wr.dst_nla, "port": wr.port, "flags": wr.flags},
            seq=next(self.sim.packet_seq),
        ))
        if causal:
            trc.flow_event("txd", f"{self.nic.name}.rma",
                           addr=(wr.dst_node, wr.dst_nla), bytes=wr.size)
        # "When the transfer has been started, a requester notification is
        # created signaling the requester is able to receive another WR."
        # Chain-posted WRs additionally carry an on_started hook (no wire
        # representation, never round-tripped through encode/decode): the
        # triggered unit counts local completions through it.
        started = getattr(wr, "on_started", None)
        if started is not None:
            started()
        if wr.flags & NotifyFlags.REQUESTER:
            self._notify(port.requester_queue, RmaUnitKind.REQUESTER,
                         wr.port, wr.size)

    def _execute_get(self, wr: RmaWorkRequest, port: "RmaPort"):
        # src_nla is remote (read there), dst_nla is local (written here).
        yield from self.endpoint.send(Packet(
            PacketKind.RMA_GET_REQUEST, self.nic.node_id, wr.dst_node,
            self.config.packet_header_bytes,
            meta={"src_nla": wr.src_nla, "dst_nla": wr.dst_nla,
                  "size": wr.size, "port": wr.port, "flags": wr.flags,
                  "origin": self.nic.node_id},
            seq=next(self.sim.packet_seq),
        ))
        started = getattr(wr, "on_started", None)
        if started is not None:
            started()
        if wr.flags & NotifyFlags.REQUESTER:
            self._notify(port.requester_queue, RmaUnitKind.REQUESTER,
                         wr.port, wr.size)

    # -- completer / responder ---------------------------------------------------------
    def _receive_loop(self):
        trc = self.sim.tracer
        track = f"{self.nic.name}.completer"
        while True:
            packet = yield self.endpoint.recv()
            self.packets_handled += 1
            if packet.is_corrupt:
                # Link-level CRC failure: discard like a lossy drop and let
                # the reliability layer (if any) retransmit.
                self.corrupt_dropped += 1
                if trc.enabled:
                    trc.instant("fault", "drop:crc", track=track,
                                seq=packet.seq, kind=packet.kind.value)
                    trc.metrics.counter(f"rma.{self.nic.name}.crc_drops").inc()
                continue
            span = (trc.begin("rma", f"cmpl-{packet.kind.value}", track=track,
                              seq=packet.seq, bytes=len(packet.payload))
                    if trc.enabled else NULL_SPAN)
            yield self.sim.timeout(self.config.completer_time)
            span.end()
            if packet.kind is PacketKind.RMA_PUT:
                self.sim.process(self._complete_put(packet),
                                 name=f"{self.nic.name}.cmpl-put")
            elif packet.kind is PacketKind.RMA_GET_REQUEST:
                self.sim.process(self._respond_get(packet),
                                 name=f"{self.nic.name}.respond")
            elif packet.kind is PacketKind.RMA_GET_RESPONSE:
                self.sim.process(self._complete_get(packet),
                                 name=f"{self.nic.name}.cmpl-get")
            else:
                raise RmaError(f"EXTOLL NIC received foreign packet {packet!r}")

    def _complete_put(self, packet: Packet):
        trc = self.sim.tracer
        causal = trc.wants("causal")
        if causal:
            trc.flow_event("rxs", f"{self.nic.name}.rma",
                           addr=(self.nic.node_id, packet.meta["dst_nla"]),
                           bytes=len(packet.payload))
        dst_phys = self.atu.translate(packet.meta["dst_nla"], len(packet.payload))
        yield from self.dma.write(dst_phys, packet.payload)
        if causal:
            trc.flow_event("dlv", f"{self.nic.name}.rma",
                           addr=(self.nic.node_id, packet.meta["dst_nla"]),
                           bytes=len(packet.payload))
        if self.put_listeners:
            for listener in self.put_listeners:
                listener(packet)
        flags = packet.meta["flags"]
        if flags & NotifyFlags.COMPLETER:
            port = self.nic.port_state(packet.meta["port"])
            self._notify(port.completer_queue, RmaUnitKind.COMPLETER,
                         packet.meta["port"], len(packet.payload))

    def _respond_get(self, packet: Packet):
        """Completer reads the data locally and hands it to the responder."""
        size = packet.meta["size"]
        src_phys = self.atu.translate(packet.meta["src_nla"], size)
        data = yield from self.dma.read(src_phys, size)
        yield self.sim.timeout(self.config.responder_time)
        yield from self.endpoint.send(Packet(
            PacketKind.RMA_GET_RESPONSE, self.nic.node_id,
            packet.meta["origin"], self.config.packet_header_bytes, data,
            meta=dict(packet.meta), seq=next(self.sim.packet_seq),
        ))
        if packet.meta["flags"] & NotifyFlags.RESPONDER:
            port = self.nic.port_state(packet.meta["port"])
            self._notify(port.responder_queue, RmaUnitKind.RESPONDER,
                         packet.meta["port"], size)

    def _complete_get(self, packet: Packet):
        dst_phys = self.atu.translate(packet.meta["dst_nla"], len(packet.payload))
        yield from self.dma.write(dst_phys, packet.payload)
        if packet.meta["flags"] & NotifyFlags.COMPLETER:
            port = self.nic.port_state(packet.meta["port"])
            self._notify(port.completer_queue, RmaUnitKind.COMPLETER,
                         packet.meta["port"], len(packet.payload))
