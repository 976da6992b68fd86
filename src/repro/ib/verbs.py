"""Host-side Verbs API (the libibverbs equivalent).

These helpers drive a :class:`~repro.cpu.HostThread` through the standard
flow: register memory, create CQ/QP, connect a QP pair, post send/receive
work requests, poll completions.  The GPU ports of ``ibv_post_send`` /
``ibv_post_recv`` / ``ibv_poll_cq`` (§IV-B) live in
:mod:`repro.core.gpu_verbs` and follow the same wire contract.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu import HostThread
from ..errors import VerbsError
from ..memory import AddressRange
from ..node import Node
from ..sim import NULL_SPAN
from ..sim.spin import spin
from .cq import CQE_BYTES, CompletionQueue, Cqe
from .hca import Hca, encode_doorbell
from .qp import QueuePair
from .wqe import WQE_BYTES, Wqe

# CPU-side instruction costs: the host build is the same libibverbs code but
# the CPU retires it far faster (§V-B1: "on host side the overhead for the
# work request generation is negligible").
HOST_POST_SEND_INSTRUCTIONS = 442
HOST_POST_RECV_INSTRUCTIONS = 180
HOST_POLL_CQ_INSTRUCTIONS = 283


@dataclass
class CqConsumer:
    """Software consumer state for one CQ."""

    cq: CompletionQueue
    consumer_index: int = 0

    @property
    def slot_addr(self) -> int:
        return self.cq.slot_addr(self.consumer_index)


class IbResources:
    """Per-node collection of verbs objects, with allocation helpers that
    place queue buffers on host or GPU memory ('bufOnHost'/'bufOnGPU')."""

    def __init__(self, node: Node, hca: Hca) -> None:
        self.node = node
        self.hca = hca

    def _alloc(self, size: int, location: str) -> AddressRange:
        if location == "host":
            return self.node.host_malloc(size)
        if location == "gpu":
            return self.node.gpu_malloc(size)
        raise VerbsError(f"bad buffer location {location!r}")

    def create_cq(self, location: str = "host",
                  entries: int | None = None) -> CompletionQueue:
        entries = entries or self.hca.config.cq_entries
        buf = self._alloc(entries * CQE_BYTES, location)
        return self.hca.create_cq(buf, entries, location)

    def create_qp(self, location: str = "host",
                  send_cq: CompletionQueue | None = None,
                  recv_cq: CompletionQueue | None = None) -> QueuePair:
        cfg = self.hca.config
        send_cq = send_cq or self.create_cq(location)
        recv_cq = recv_cq or self.create_cq(location)
        sq = self._alloc(cfg.sq_entries * WQE_BYTES, location)
        rq = self._alloc(cfg.rq_entries * WQE_BYTES, location)
        return self.hca.create_qp(sq, rq, send_cq, recv_cq, location)


def connect_qps(qp_a: QueuePair, node_a_id: int,
                qp_b: QueuePair, node_b_id: int) -> None:
    """Out-of-band connection setup (what the subnet manager + CM do)."""
    qp_a.to_init()
    qp_b.to_init()
    qp_a.to_rtr(node_b_id, qp_b.qp_num)
    qp_b.to_rtr(node_a_id, qp_a.qp_num)
    qp_a.to_rts()
    qp_b.to_rts()


# --- posting ------------------------------------------------------------------

def ibv_post_send(ctx: HostThread, hca: Hca, qp: QueuePair, wqe: Wqe,
                  producer_index: int):
    """Post one send WR from the CPU: build the big-endian WQE, write it to
    the SQ ring, ring the doorbell.  ``producer_index`` is the caller's SQ
    producer counter *before* this post; returns the new value."""
    qp.require_rts()
    trc = ctx.sim.tracer
    span = (trc.begin("ib.api", "ibv_post_send", track=ctx.track,
                      qp=qp.qp_num, bytes=wqe.length)
            if trc.enabled else NULL_SPAN)
    yield from ctx.compute(HOST_POST_SEND_INSTRUCTIONS)
    yield from ctx.write(qp.sq_slot_addr(producer_index), wqe.encode())
    yield from ctx.write(hca.doorbell_addr(qp),
                         encode_doorbell(producer_index + 1).to_bytes(8, "little"))
    span.end()
    return producer_index + 1


def ibv_post_recv(ctx: HostThread, hca: Hca, qp: QueuePair, wqe: Wqe,
                  producer_index: int):
    """Post one receive WR: write the WQE to the RQ ring and ring the RQ
    doorbell.  Returns the new producer index."""
    qp.require_rtr()
    trc = ctx.sim.tracer
    span = (trc.begin("ib.api", "ibv_post_recv", track=ctx.track,
                      qp=qp.qp_num, bytes=wqe.length)
            if trc.enabled else NULL_SPAN)
    yield from ctx.compute(HOST_POST_RECV_INSTRUCTIONS)
    yield from ctx.write(qp.rq_slot_addr(producer_index), wqe.encode())
    yield from ctx.write(hca.doorbell_addr(qp),
                         encode_doorbell(producer_index + 1, is_rq=True)
                         .to_bytes(8, "little"))
    span.end()
    return producer_index + 1


def ibv_poll_cq(ctx: HostThread, consumer: CqConsumer):
    """One non-blocking poll: returns a :class:`Cqe` or ``None``."""
    word1 = yield from ctx.read_u64(consumer.slot_addr + 8)
    if not Cqe.is_valid_word(int.from_bytes(word1.to_bytes(8, "little"), "big")):
        return None
    yield from ctx.compute(HOST_POLL_CQ_INSTRUCTIONS)
    raw = yield from ctx.read(consumer.slot_addr, CQE_BYTES)
    cqe = Cqe.decode(raw)
    # Invalidate the slot for ring reuse, advance the consumer.
    yield from ctx.write_u64(consumer.slot_addr + 8, 0)
    consumer.consumer_index += 1
    return cqe


def ibv_wait_cq(ctx: HostThread, consumer: CqConsumer):
    """Spin ``ibv_poll_cq`` until a completion arrives.  Returns the
    :class:`Cqe`."""
    # Polling layer ("ib.poll"): per-message span volume, filtered out of
    # the telemetry flight recorder by default (see gpu_rma_wait_notification).
    cqe, _polls = yield from spin(ctx, ibv_poll_cq, (ctx, consumer),
                                  2_000_000, VerbsError, "CQ wait",
                                  ("ib.poll", "ibv_wait_cq"), "ib.cq_polls")
    return cqe
