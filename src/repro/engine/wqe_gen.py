"""Warp-parallel descriptor/WQE generation (device code).

The paper measures single-threaded work-request generation as the dominant
posting cost — ~442 instructions for ``ibv_post_send`` (§V-B3), 34+stores
for the EXTOLL descriptor — and notes "the work request generation cannot
be parallelized" *under the scalar API*.  The engine changes the API: the
warp's lanes each pack a slice of the descriptor, so the ALU critical path
shrinks to ``ceil(cost / lanes)`` (``ThreadCtx.alu_parallel``; counters
still record all issued instructions), and the finished bytes leave as
warp-coalesced wide stores instead of scalar store sequences.

Three posting shapes on EXTOLL:

* :func:`engine_rma_post` — one descriptor, one wide store into the classic
  trigger region (the §VI wide post with warp-parallel assembly).
* :func:`engine_stage_batch` + :func:`engine_ring_batch_doorbell` — the
  coalesced path: descriptors packed back-to-back into the requester
  page's staging region (5 per 128-byte TLP), then ONE 8-byte doorbell
  carrying the count posts them all.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import RmaError
from ..extoll import RmaWorkRequest
from ..extoll.descriptor import WR_BYTES
from ..gpu import ThreadCtx
from ..sim import NULL_SPAN
from ..core.gpu_rma import POST_ASSEMBLE_COST

#: Default lane count for collaborative assembly: a quarter warp is enough
#: to flatten the 34-instruction descriptor pack; full 32 lanes buy nothing
#: once the critical path is a handful of instructions.
DEFAULT_LANES = 8

#: Descriptors per wide store when staging a batch: 5 x 24 B = 120 B fits
#: one 128-byte warp transaction.
_WRS_PER_WIDE_STORE = 128 // WR_BYTES

#: Assembling the count word for the batch doorbell (compare + pack).
BATCH_DOORBELL_COST = 6


def engine_rma_post(ctx: ThreadCtx, page_addr: int, wr: RmaWorkRequest,
                    lanes: int = DEFAULT_LANES):
    """Post one descriptor: warp-parallel assembly + one wide store into
    the trigger region.  Returns the simulated time spent."""
    start = ctx.sim.now
    trc = ctx.sim.tracer
    span = (trc.begin("rma.api", "engine_rma_post", track=ctx.track,
                      op=wr.op.name.lower(), bytes=wr.size, lanes=lanes)
            if trc.enabled else NULL_SPAN)
    yield from ctx.alu_parallel(POST_ASSEMBLE_COST, lanes)
    yield from ctx.store_wide(page_addr, wr.encode())
    span.end()
    return ctx.sim.now - start


def engine_stage_batch(ctx: ThreadCtx, page_addr: int, region_offset: int,
                       wrs: Sequence[RmaWorkRequest],
                       lanes: int = DEFAULT_LANES):
    """Stage descriptors back-to-back in the page's batch region without
    triggering anything: all of them assembled warp-parallel, packed five
    to a 128-byte wide store."""
    if not wrs:
        raise RmaError("empty descriptor batch")
    yield from ctx.alu_parallel(POST_ASSEMBLE_COST * len(wrs), lanes)
    raw = b"".join(wr.encode() for wr in wrs)
    chunk = _WRS_PER_WIDE_STORE * WR_BYTES
    for off in range(0, len(raw), chunk):
        yield from ctx.store_wide(page_addr + region_offset + off,
                                  raw[off:off + chunk])


def engine_ring_batch_doorbell(ctx: ThreadCtx, page_addr: int,
                               doorbell_offset: int, count: int):
    """Ring the page's batch doorbell: ONE 8-byte control store posts
    ``count`` staged descriptors (vs ``count`` trigger stores)."""
    trc = ctx.sim.tracer
    if trc.enabled:
        trc.instant("rma.api", "engine-doorbell", track=ctx.track,
                    descriptors=count)
    yield from ctx.alu(BATCH_DOORBELL_COST)
    yield from ctx.store_u64(page_addr + doorbell_offset, count)


def engine_post_batch(ctx: ThreadCtx, page_addr: int, region_offset: int,
                      doorbell_offset: int, wrs: Sequence[RmaWorkRequest],
                      lanes: int = DEFAULT_LANES):
    """Stage + ring in one call; the PCIe link's FIFO ordering guarantees
    every staged descriptor lands before the doorbell, the same guarantee
    the classic three-store post relies on.  Returns the time spent."""
    start = ctx.sim.now
    trc = ctx.sim.tracer
    span = (trc.begin("rma.api", "engine_post_batch", track=ctx.track,
                      descriptors=len(wrs), lanes=lanes)
            if trc.enabled else NULL_SPAN)
    yield from engine_stage_batch(ctx, page_addr, region_offset, wrs, lanes)
    yield from engine_ring_batch_doorbell(ctx, page_addr, doorbell_offset,
                                          len(wrs))
    span.end()
    return ctx.sim.now - start


__all__ = [
    "DEFAULT_LANES",
    "BATCH_DOORBELL_COST",
    "engine_rma_post",
    "engine_stage_batch",
    "engine_ring_batch_doorbell",
    "engine_post_batch",
]
