"""The GPU-resident EXTOLL RMA API (§III-C) — the paper's contribution.

Device threads drive the RMA unit directly:

* :func:`gpu_rma_post` — a single thread assembles the 192-bit descriptor and
  stores its three 64-bit words into the UVA-mapped BAR requester page.
* :func:`gpu_rma_wait_notification` — spin on the next notification slot *in
  host memory* (one PCIe round trip per poll), then consume and free it:
  two 64-bit zeroing stores plus the 32-bit read-pointer store, exactly the
  traffic Table I decomposes.
* the ``dev2dev-pollOnGPU`` alternative needs no API call: the thread
  spins (:meth:`~repro.gpu.ThreadCtx.spin_until_u64`) on the last payload
  element in *device memory*, where the poll loop runs out of the L2.

Instruction budgets (ALU work around the memory operations) are charged
explicitly so ``instructions executed`` in Table I emerges from execution.
"""

from __future__ import annotations

from ..errors import RmaError
from ..extoll import Notification, NotificationCursor, RmaWorkRequest
from ..gpu import ThreadCtx
from ..sim import NULL_SPAN
from ..sim.spin import spin

# ALU instruction budgets (loads/stores add their own instruction counts).
POST_ASSEMBLE_COST = 34        # pack the three descriptor words
# Each notification poll re-derives the slot address (ring wrap, pointer
# arithmetic), tests the valid bit, and branches — far more work per
# iteration than a flag compare, which is why Table I shows the
# notification-polling kernel executing ~2x the instructions.
POLL_LOOP_COST = 26
CONSUME_COST = 22              # decode, ring bookkeeping after a hit


# The consumer state is the same whether a host thread or a device thread
# drains the queue — only the access timing differs.  Sharing the class lets
# a connection keep ONE persistent cursor per queue across measurements.
GpuNotificationCursor = NotificationCursor


def gpu_rma_post(ctx: ThreadCtx, page_addr: int, wr: RmaWorkRequest):
    """Post a put/get descriptor from a single device thread: three 64-bit
    stores into the BAR requester page; the third triggers execution.

    Returns the simulated time spent (used by the Fig. 3 phase split).
    """
    start = ctx.sim.now
    trc = ctx.sim.tracer
    span = (trc.begin("rma.api", "gpu_rma_post", track=ctx.track,
                      op=wr.op.name.lower(), bytes=wr.size)
            if trc.enabled else NULL_SPAN)
    yield from ctx.alu(POST_ASSEMBLE_COST)
    w0, w1, w2 = wr.words()
    yield from ctx.store_u64(page_addr, w0)
    yield from ctx.store_u64(page_addr + 8, w1)
    yield from ctx.store_u64(page_addr + 16, w2)
    span.end()
    return ctx.sim.now - start


def gpu_rma_wait_notification(ctx: ThreadCtx, cursor: GpuNotificationCursor,
                              max_polls: int | None = 1_000_000):
    """Spin until the next notification arrives, then consume and free it.

    Every poll is a 64-bit load from the kernel-space queue in host memory —
    a full PCIe round trip from the GPU's point of view.  Returns
    ``(Notification, polls)``.
    """
    # Notification waits are the polling layer — one span per *wait*, but
    # there are as many waits as messages, so this is a microscopic
    # category ("rma.poll") that the telemetry flight recorder filters out
    # by default; spin() gates on wants() so the filtered case pays one check.
    return spin(ctx, _poll_notification, (ctx, cursor), max_polls, RmaError,
                "GPU notification wait", ("rma.poll", "wait-notification"),
                "rma.notification_polls")


def gpu_rma_try_notification(ctx: ThreadCtx, cursor: GpuNotificationCursor):
    """Non-blocking notification check: one poll, consume on a hit.

    The engine's scheduler interleaves many connections, so it cannot park
    a thread in :func:`gpu_rma_wait_notification`'s spin loop; instead it
    probes each cursor once per service pass.  A miss costs one PCIe load
    plus the loop ALU work; a hit additionally pays the consume sequence.
    Returns the :class:`Notification` or ``None``.
    """
    record = yield from _poll_notification(ctx, cursor)
    if record is not None:
        trc = ctx.sim.tracer
        if trc.enabled:
            trc.metrics.counter("rma.try_notification_hits").inc()
    return record


def _poll_notification(ctx: ThreadCtx, cursor: GpuNotificationCursor):
    """One poll of the next slot: on a hit, read, decode and free it, and
    advance the cursor.  Returns the :class:`Notification` or ``None``."""
    word0 = yield from ctx.load_u64(cursor.slot_addr)
    yield from ctx.alu(POLL_LOOP_COST)
    if not Notification.is_valid_word(word0):
        return None
    raw = yield from ctx.load(cursor.slot_addr, 16)
    record = Notification.decode(raw)
    yield from ctx.alu(CONSUME_COST)
    # Free the record (128 bits, two 64-bit stores) and publish the new
    # 32-bit read pointer — all system-memory writes (§V-A3).
    yield from ctx.store_u64(cursor.slot_addr, 0)
    yield from ctx.store_u64(cursor.slot_addr + 8, 0)
    cursor.read_index += 1
    yield from ctx.store_u32(cursor.queue.read_ptr_addr,
                             cursor.read_index % (1 << 32))
    return record
