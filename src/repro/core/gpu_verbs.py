"""The GPU-resident InfiniBand Verbs API (§IV-B).

``ibv_post_send`` and ``ibv_poll_cq`` ported to device code (the GPU
paths poll the last received element instead of posting receive WRs,
§V-B1).  The posting path shows why InfiniBand is expensive to drive from a
GPU thread (§V-B3):

* the 64-byte WQE must be assembled in **big-endian**: every dynamic field
  (addresses, size) costs byteswap instruction sequences; constant fields
  can be pre-converted once (``optimized=True``, the paper's optimization),
* old queue elements must be *stamped* so the HCA prefetcher recognizes
  reused slots,
* the WQE is written to the queue buffer (device or host memory), a memory
  fence orders it, and only then is the doorbell register rung — a second
  PCIe store.

All of this is executed by a *single thread*: "most of these instructions
have to be performed by a single thread, since the work request generation
cannot be parallelized" (§V-B3).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import VerbsError
from ..gpu import ThreadCtx
from ..ib import CQE_BYTES, Cqe, Wqe
from ..sim import NULL_SPAN
from ..sim.spin import spin
from ..ib.hca import Hca, encode_doorbell
from ..ib.qp import QueuePair
from ..ib.wqe import (
    poll_cq_instruction_cost,
    post_send_instruction_cost,
    post_send_instruction_cost_static_optimized,
)

# Memory operations issued by the post path (they count as instructions on
# their own): 8x u64 WQE stores + 1 doorbell store + fence.
_POST_MEMORY_INSTRUCTIONS = 10
_POLL_MEMORY_INSTRUCTIONS = 3  # word1 peek + CQE load + invalidating store


@dataclass
class GpuCqConsumer:
    """Device-side CQ consumer state."""

    cq_buffer_base: int
    entries: int
    consumer_index: int = 0

    def slot_addr(self, index: int | None = None) -> int:
        idx = self.consumer_index if index is None else index
        return self.cq_buffer_base + (idx % self.entries) * CQE_BYTES


def gpu_post_send(ctx: ThreadCtx, hca: Hca, qp: QueuePair, wqe: Wqe,
                  producer_index: int, optimized: bool = True):
    """Post one send WR from a single device thread.  Returns the new SQ
    producer index.

    ``optimized`` selects the paper's static-conversion variant, where only
    the per-request fields (addresses, size) are byte-swapped.
    """
    qp.require_rts()
    trc = ctx.sim.tracer
    span = (trc.begin("ib.api", "gpu_post_send", track=ctx.track,
                      qp=qp.qp_num, bytes=wqe.length, optimized=optimized)
            if trc.enabled else NULL_SPAN)
    total = (post_send_instruction_cost_static_optimized() if optimized
             else post_send_instruction_cost())
    yield from ctx.alu(total - _POST_MEMORY_INSTRUCTIONS)
    # Write the WQE into the ring (device memory: through L2; host memory:
    # posted PCIe stores), as eight 64-bit stores.
    slot = qp.sq_slot_addr(producer_index)
    raw = wqe.encode()
    for word in range(8):
        yield from ctx.store(slot + word * 8, raw[word * 8:(word + 1) * 8])
    # Order the WQE ahead of the doorbell, then ring it.
    yield from ctx.fence_system()
    yield from ctx.store_u64(hca.doorbell_addr(qp),
                             encode_doorbell(producer_index + 1))
    span.end()
    return producer_index + 1


def gpu_poll_cq(ctx: ThreadCtx, consumer: GpuCqConsumer):
    """One non-blocking CQ poll from a device thread.  Returns a
    :class:`Cqe` or ``None``.

    A successful poll costs the full ~283 instructions: CQE parse, QP-list
    lookup, consumer bookkeeping (§V-B3).  A miss costs only the peek.
    """
    word1 = yield from ctx.load(consumer.slot_addr() + 8, 8)
    yield from ctx.alu(6)
    if not Cqe.is_valid_word(int.from_bytes(word1, "big")):
        return None
    yield from ctx.alu(poll_cq_instruction_cost() - _POLL_MEMORY_INSTRUCTIONS - 6)
    raw = yield from ctx.load(consumer.slot_addr(), CQE_BYTES)
    cqe = Cqe.decode(raw)
    yield from ctx.store_u64(consumer.slot_addr() + 8, 0)
    consumer.consumer_index += 1
    return cqe


def gpu_wait_cq(ctx: ThreadCtx, consumer: GpuCqConsumer):
    """Spin :func:`gpu_poll_cq` until a completion arrives.  Returns
    ``(Cqe, polls)``."""
    # Polling layer ("ib.poll"): per-message span volume, filtered out of
    # the telemetry flight recorder by default (see gpu_rma_wait_notification).
    return spin(ctx, gpu_poll_cq, (ctx, consumer), 1_000_000, VerbsError,
                "GPU CQ wait", ("ib.poll", "gpu_wait_cq"), "ib.gpu_cq_polls")
