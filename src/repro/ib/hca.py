"""The InfiniBand HCA: doorbells, WQE fetch/execute, RC transport, CQEs.

The posting contract (§IV-A) is the two-step dance the paper contrasts with
EXTOLL's single BAR burst:

1. software writes a 64-byte big-endian WQE into the send queue ring (host
   or GPU memory),
2. software rings the QP's doorbell register in the HCA BAR.

The HCA then *fetches the WQE by DMA* (an extra PCIe round trip — P2P when
the rings live in GPU memory), executes it, and reports completion by
DMA-writing a CQE into the completion-queue buffer once the remote end
acknowledges.  Reliable-connection semantics: per-QP ordering, in-order
delivery, receive WQEs consumed by SENDs and writes-with-immediate.

RC runs on the lossless, in-order fabric the paper measures, so the HCA
keeps no packet sequence numbers and never retransmits: an ACK completes
the operation it answers, and a READ completes on its response.  The
receive loop still checks every packet's CRC and drops a bad one before
the transport sees it, an input check; nothing replays what it carried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import VerbsError
from ..memory import AddressRange, MmioWindow
from ..network import Endpoint, Packet, PacketKind
from ..pcie import DmaConfig, DmaEngine, PcieFabric, PciePort
from ..sim import NULL_SPAN, Mutex, Simulator, Store
from .config import IbConfig
from .cq import CompletionQueue, Cqe, WcOpcode, WcStatus
from .mr import MemoryRegion, MrTable
from .qp import QueuePair
from .wqe import WQE_BYTES, IbOpcode, Wqe

_RQ_DOORBELL_BIT = 1 << 62


def encode_doorbell(producer_index: int, is_rq: bool = False) -> int:
    """The 64-bit doorbell record software writes to ring a QP."""
    value = producer_index & 0xFFFFFFFF
    if is_rq:
        value |= _RQ_DOORBELL_BIT
    return value


@dataclass(frozen=True)
class _FetchJob:
    qp_num: int
    index: int


class Hca:
    """One InfiniBand adapter in a node."""

    def __init__(self, sim: Simulator, node_id: int, name: str = "",
                 config: Optional[IbConfig] = None) -> None:
        self.sim = sim
        self.node_id = node_id
        self.name = name or f"hca{node_id}"
        self.config = config or IbConfig()
        self.mr_table = MrTable(f"{self.name}.mr")
        self.bar: Optional[MmioWindow] = None
        self.endpoint: Optional[Endpoint] = None
        self._qps: Dict[int, QueuePair] = {}
        self._qp_mutex: Dict[int, Mutex] = {}
        self._next_qp_num = 1
        self._jobs: Optional[Store] = None
        # Stats.
        self.doorbells = 0
        self.wqes_executed = 0
        self.packets_handled = 0
        self.cqes_written = 0

    # -- wiring ---------------------------------------------------------------------
    def attach(self, fabric: PcieFabric, bar_base: int,
               endpoint: Endpoint) -> PciePort:
        if self.bar is not None:
            raise VerbsError(f"{self.name} already attached")
        self.bar = MmioWindow(f"{self.name}.bar", bar_base, self.config.bar_size)
        fabric.address_map.add(self.bar)
        pcie_port = fabric.attach(self.name)
        fabric.claim(pcie_port, self.bar)
        self.endpoint = endpoint
        cfg = self.config
        self.dma = DmaEngine(self.sim, pcie_port, f"{self.name}.dma",
                             DmaConfig(contexts=4))
        self.ctrl_dma = DmaEngine(self.sim, pcie_port, f"{self.name}.ctrl-dma",
                                  DmaConfig(contexts=4))
        self._jobs = Store(self.sim, name=f"{self.name}.jobs")
        self.bar.on_write(cfg.doorbell_offset,
                          cfg.max_qps * cfg.doorbell_stride,
                          self._on_doorbell)
        for i in range(cfg.processing_contexts):
            self.sim.process(self._worker_loop(i), name=f"{self.name}.pe{i}")
        self.sim.process(self._receive_loop(), name=f"{self.name}.rx")
        return pcie_port

    def _require_attached(self) -> None:
        if self.bar is None:
            raise VerbsError(f"{self.name} is not attached to a node")

    # -- resource creation -----------------------------------------------------------
    def register_memory(self, rng: AddressRange) -> MemoryRegion:
        return self.mr_table.register(rng)

    def create_cq(self, buffer: AddressRange, entries: int,
                  location: str) -> CompletionQueue:
        self._require_attached()
        return CompletionQueue(buffer, entries, location)

    def create_qp(self, sq_buffer: AddressRange, rq_buffer: AddressRange,
                  send_cq: CompletionQueue, recv_cq: CompletionQueue,
                  location: str) -> QueuePair:
        self._require_attached()
        if len(self._qps) >= self.config.max_qps:
            raise VerbsError(f"{self.name}: QP limit reached")
        qp = QueuePair(
            qp_num=self._next_qp_num,
            sq_buffer=sq_buffer, rq_buffer=rq_buffer,
            sq_entries=self.config.sq_entries,
            rq_entries=self.config.rq_entries,
            send_cq=send_cq, recv_cq=recv_cq, location=location,
        )
        self._next_qp_num += 1
        self._qps[qp.qp_num] = qp
        self._qp_mutex[qp.qp_num] = Mutex(self.sim, f"qp{qp.qp_num}")
        return qp

    def qp(self, qp_num: int) -> QueuePair:
        try:
            return self._qps[qp_num]
        except KeyError:
            raise VerbsError(f"{self.name}: unknown QP {qp_num}") from None

    def doorbell_addr(self, qp: QueuePair) -> int:
        self._require_attached()
        return (self.bar.range.base + self.config.doorbell_offset
                + qp.qp_num * self.config.doorbell_stride)

    # -- doorbells ---------------------------------------------------------------------
    def _on_doorbell(self, rel_off: int, data: bytes) -> None:
        qp_num = rel_off // self.config.doorbell_stride
        qp = self.qp(qp_num)
        value = int.from_bytes(data[:8], "little")
        index = value & 0xFFFFFFFF
        self.doorbells += 1
        trc = self.sim.tracer
        if trc.enabled:
            trc.instant("ib", "doorbell", track=f"{self.name}.db",
                        qp=qp_num, index=index,
                        rq=bool(value & _RQ_DOORBELL_BIT))
            trc.metrics.counter("ib.doorbells").inc()
        if value & _RQ_DOORBELL_BIT:
            qp.rq_producer_seen = max(qp.rq_producer_seen, index)
            return
        # New send WQEs: schedule a fetch job per fresh producer slot.
        while qp.sq_producer_seen < index:
            self._jobs.put(_FetchJob(qp_num, qp.sq_producer_seen))
            qp.sq_producer_seen += 1

    # -- WQE execution -------------------------------------------------------------------
    def _worker_loop(self, worker: int):
        cfg = self.config
        track = f"{self.name}.pe{worker}"
        while True:
            job = yield self._jobs.get()
            qp = self.qp(job.qp_num)
            mutex = self._qp_mutex[job.qp_num]
            yield mutex.acquire()  # RC: per-QP ordering
            trc = self.sim.tracer
            span = (trc.begin("ib", "wqe-exec", track=track,
                              qp=job.qp_num, index=job.index)
                    if trc.enabled else NULL_SPAN)
            try:
                qp.require_rts()
                yield self.sim.timeout(cfg.doorbell_to_fetch)
                raw = yield from self.ctrl_dma.read(qp.sq_slot_addr(job.index),
                                                    WQE_BYTES)
                wqe = Wqe.decode(raw)
                span.set(opcode=wqe.opcode.name, bytes=wqe.length)
                yield self.sim.timeout(cfg.wqe_execute_overhead)
                yield from self._execute_send_wqe(qp, wqe)
                qp.sq_consumer += 1
                self.wqes_executed += 1
                if trc.enabled:
                    trc.metrics.counter("ib.wqes_executed").inc()
            finally:
                span.end()
                mutex.release()

    @staticmethod
    def _causal_addr(dst_node: int, meta: dict):
        """Causal address key of one request packet — (destination node,
        target address).  RDMA writes land at an explicit remote address;
        SENDs are consumed in order by the destination QP, so the QP number
        is the shared key both ends can compute."""
        opcode = IbOpcode(meta["opcode"])
        if opcode in (IbOpcode.RDMA_WRITE, IbOpcode.RDMA_WRITE_WITH_IMM):
            return (dst_node, meta["remote_addr"])
        return (dst_node, ("qp", meta["dst_qp"]))

    def _execute_send_wqe(self, qp: QueuePair, wqe: Wqe):
        cfg = self.config
        self.mr_table.validate_local(wqe.lkey, wqe.local_addr, wqe.length)
        meta = {
            "dst_qp": qp.remote_qp_num, "src_qp": qp.qp_num,
            "wr_id": wqe.wr_id, "opcode": int(wqe.opcode),
            "remote_addr": wqe.remote_addr, "rkey": wqe.rkey,
            "immediate": wqe.immediate, "length": wqe.length,
            "local_addr": wqe.local_addr, "lkey": wqe.lkey,
        }
        if wqe.opcode in (IbOpcode.RDMA_WRITE, IbOpcode.RDMA_WRITE_WITH_IMM):
            payload = yield from self.dma.read(wqe.local_addr, wqe.length)
            packet = Packet(
                PacketKind.IB_RDMA_WRITE, self.node_id, qp.remote_node,
                cfg.packet_header_bytes, payload, meta,
                seq=next(self.sim.packet_seq))
        elif wqe.opcode is IbOpcode.SEND:
            payload = yield from self.dma.read(wqe.local_addr, wqe.length)
            packet = Packet(
                PacketKind.IB_SEND, self.node_id, qp.remote_node,
                cfg.packet_header_bytes, payload, meta,
                seq=next(self.sim.packet_seq))
        elif wqe.opcode is IbOpcode.RDMA_READ:
            packet = Packet(
                PacketKind.IB_RDMA_READ_REQ, self.node_id, qp.remote_node,
                cfg.packet_header_bytes, b"", meta,
                seq=next(self.sim.packet_seq))
        else:
            raise VerbsError(f"cannot execute {wqe.opcode} from the send queue")
        trc = self.sim.tracer
        causal = (trc.wants("causal")
                  and wqe.opcode is not IbOpcode.RDMA_READ)
        if causal:
            addr = self._causal_addr(qp.remote_node, meta)
            trc.flow_event("txr", f"{self.name}.rma", addr=addr,
                           bytes=wqe.length)
        yield from self.endpoint.send(packet)
        if causal:
            trc.flow_event("txd", f"{self.name}.rma", addr=addr)

    # -- receive path ---------------------------------------------------------------------
    def _receive_loop(self):
        while True:
            packet = yield self.endpoint.recv()
            self.packets_handled += 1
            if packet.is_corrupt:
                # Link-level ICRC failure: the packet never existed as far
                # as the transport is concerned.
                trc = self.sim.tracer
                if trc.enabled:
                    trc.instant("fault", "drop:crc", track=f"{self.name}.rx",
                                seq=packet.seq, kind=packet.kind.value)
                    trc.metrics.counter(f"ib.{self.name}.crc_drops").inc()
                continue
            # A bad packet fails only its own process: an IB async event.
            self.sim.process(self._handle_packet(packet),
                             name=("{}.pkt{}", self.name, packet.seq))

    def _handle_packet(self, packet: Packet):
        kind = packet.kind
        if kind is PacketKind.IB_RDMA_WRITE:
            yield from self._rx_rdma_write(packet)
        elif kind is PacketKind.IB_SEND:
            yield from self._rx_send(packet)
        elif kind is PacketKind.IB_RDMA_READ_REQ:
            yield from self._rx_read_request(packet)
        elif kind is PacketKind.IB_RDMA_READ_RSP:
            yield from self._rx_read_response(packet)
        elif kind is PacketKind.IB_ACK:
            yield from self._rx_ack(packet)
        else:
            raise VerbsError(f"{self.name} received foreign packet {packet!r}")

    def _rx_rdma_write(self, packet: Packet):
        meta = packet.meta
        qp = self.qp(meta["dst_qp"])
        qp.require_rtr()
        trc = self.sim.tracer
        causal = trc.wants("causal")
        if causal:
            addr = self._causal_addr(self.node_id, meta)
            trc.flow_event("rxs", f"{self.name}.rma", addr=addr)
        self.mr_table.validate_remote(meta["rkey"], meta["remote_addr"],
                                      len(packet.payload))
        yield from self.dma.write(meta["remote_addr"], packet.payload)
        if causal:
            trc.flow_event("dlv", f"{self.name}.rma", addr=addr,
                           bytes=len(packet.payload))
        if IbOpcode(meta["opcode"]) is IbOpcode.RDMA_WRITE_WITH_IMM:
            # Consumes a receive WQE; its address may be zero/ignored (§IV-A).
            yield from self._consume_rq_entry(qp, fetch=False)
            yield from self._write_cqe(qp.recv_cq, Cqe(
                wr_id=0, opcode=WcOpcode.RECV_RDMA_WITH_IMM,
                status=WcStatus.SUCCESS, qp_num=qp.qp_num,
                byte_len=len(packet.payload), immediate=meta["immediate"]))
        yield from self._send_ack(packet, WcOpcode.RDMA_WRITE)

    def _rx_send(self, packet: Packet):
        meta = packet.meta
        qp = self.qp(meta["dst_qp"])
        qp.require_rtr()
        trc = self.sim.tracer
        causal = trc.wants("causal")
        if causal:
            addr = self._causal_addr(self.node_id, meta)
            trc.flow_event("rxs", f"{self.name}.rma", addr=addr)
        rq_wqe = yield from self._consume_rq_entry(qp, fetch=True)
        if rq_wqe.length < len(packet.payload):
            raise VerbsError(
                f"QP{qp.qp_num}: receive buffer ({rq_wqe.length}B) smaller "
                f"than SEND payload ({len(packet.payload)}B)")
        self.mr_table.validate_local(rq_wqe.lkey, rq_wqe.local_addr,
                                     len(packet.payload))
        yield from self.dma.write(rq_wqe.local_addr, packet.payload)
        if causal:
            trc.flow_event("dlv", f"{self.name}.rma", addr=addr,
                           bytes=len(packet.payload))
        yield from self._write_cqe(qp.recv_cq, Cqe(
            wr_id=rq_wqe.wr_id, opcode=WcOpcode.RECV,
            status=WcStatus.SUCCESS, qp_num=qp.qp_num,
            byte_len=len(packet.payload)))
        yield from self._send_ack(packet, WcOpcode.SEND)

    def _consume_rq_entry(self, qp: QueuePair, fetch: bool):
        """Pop the next posted receive WQE.  'If a send request is submitted
        without a matching receive request on the remote side, the
        communication fails' (§IV-A)."""
        if qp.rq_outstanding <= 0:
            raise VerbsError(
                f"QP{qp.qp_num}: receiver-not-ready — no receive WQE posted")
        index = qp.rq_consumer
        qp.rq_consumer += 1
        if not fetch:
            return None
        raw = yield from self.ctrl_dma.read(qp.rq_slot_addr(index), WQE_BYTES)
        return Wqe.decode(raw)

    def _rx_read_request(self, packet: Packet):
        meta = packet.meta
        qp = self.qp(meta["dst_qp"])
        qp.require_rtr()
        self.mr_table.validate_remote(meta["rkey"], meta["remote_addr"],
                                      meta["length"])
        data = yield from self.dma.read(meta["remote_addr"], meta["length"])
        yield from self.endpoint.send(Packet(
            PacketKind.IB_RDMA_READ_RSP, self.node_id, packet.src_node,
            self.config.packet_header_bytes, data, dict(meta),
            seq=next(self.sim.packet_seq)))

    def _rx_read_response(self, packet: Packet):
        meta = packet.meta
        qp = self.qp(meta["src_qp"])  # back at the origin
        yield from self.dma.write(meta["local_addr"], packet.payload)
        yield from self._write_cqe(qp.send_cq, Cqe(
            wr_id=meta["wr_id"], opcode=WcOpcode.RDMA_READ,
            status=WcStatus.SUCCESS, qp_num=qp.qp_num,
            byte_len=len(packet.payload)))

    def _send_ack(self, packet: Packet, op: WcOpcode):
        yield self.sim.timeout(self.config.ack_overhead)
        meta = {"src_qp": packet.meta["src_qp"],
                "wr_id": packet.meta["wr_id"],
                "opcode": int(op), "length": packet.meta["length"]}
        yield from self.endpoint.send(Packet(
            PacketKind.IB_ACK, self.node_id, packet.src_node,
            self.config.packet_header_bytes, b"", meta,
            seq=next(self.sim.packet_seq)))

    def _rx_ack(self, packet: Packet):
        meta = packet.meta
        qp = self.qp(meta["src_qp"])
        yield from self._write_cqe(qp.send_cq, Cqe(
            wr_id=meta["wr_id"], opcode=WcOpcode(meta["opcode"]),
            status=WcStatus.SUCCESS, qp_num=qp.qp_num,
            byte_len=meta["length"]))

    # -- CQEs --------------------------------------------------------------------------
    def _write_cqe(self, cq: CompletionQueue, cqe: Cqe):
        slot = cq.hw_claim_slot()
        yield from self.ctrl_dma.write(slot, cqe.encode())
        self.cqes_written += 1
        if cq.listeners:
            for listener in cq.listeners:
                listener(cqe)
        trc = self.sim.tracer
        if trc.enabled:
            trc.instant("ib", f"cqe:{cqe.opcode.name}", track=f"{self.name}.cq",
                        qp=cqe.qp_num, wr_id=cqe.wr_id, bytes=cqe.byte_len)
            trc.metrics.counter("ib.cqes_written").inc()
