"""Host-side RMA API (the `librma` equivalent, §III-B).

Thin wrappers that drive a :class:`~repro.cpu.HostThread` through the same
motions the paper's CPU code performs: post a 24-byte descriptor into a
port's requester page with one write-combined store, and consume
notifications from the kernel-space queues (read → free by zeroing → bump
the 32-bit read pointer).

The GPU-side mirror of this API lives in :mod:`repro.core.gpu_rma` — the
point of the paper is precisely how differently these two callers perform.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu import HostThread
from ..errors import RmaError
from ..sim import NULL_SPAN
from ..sim.spin import spin
from .descriptor import RmaWorkRequest
from .notification import Notification, NotificationQueue


@dataclass
class NotificationCursor:
    """Software-side consumer state for one notification queue."""

    queue: NotificationQueue
    read_index: int = 0

    @property
    def slot_addr(self) -> int:
        return self.queue.slot_addr(self.read_index)


def rma_post(ctx: HostThread, port_page_addr: int, wr: RmaWorkRequest):
    """Post a work request from the CPU: one 24-byte store to the BAR page
    (write-combining folds the three words into a single transaction)."""
    trc = ctx.sim.tracer
    span = (trc.begin("rma.api", "rma_post", track=ctx.track,
                      op=wr.op.name.lower(), bytes=wr.size)
            if trc.enabled else NULL_SPAN)
    yield from ctx.compute(30)  # descriptor assembly
    yield from ctx.write(port_page_addr, wr.encode())
    span.end()


def rma_wait_notification(ctx: HostThread, cursor: NotificationCursor,
                          max_polls: int | None = 2_000_000):
    """Spin on the next queue slot until its valid bit is set, then consume
    and free it.  Returns the decoded :class:`Notification`."""
    # Polling layer (see gpu_rma_wait_notification): per-message span
    # volume, filtered out of the flight recorder by default.
    record, _polls = yield from spin(
        ctx, _poll_notification, (ctx, cursor), max_polls, RmaError,
        "notification wait on {1.queue.name}",
        ("rma.poll", "wait-notification"), "rma.host_notification_polls")
    return record


def _poll_notification(ctx: HostThread, cursor: NotificationCursor):
    """One poll of the next slot: on a hit, read, free and publish it."""
    word0 = yield from ctx.read_u64(cursor.slot_addr)
    if not Notification.is_valid_word(word0):
        return None
    raw = yield from ctx.read(cursor.slot_addr, 16)
    record = Notification.decode(raw)
    # Free: reset both words to zero, then publish the new read pointer.
    yield from ctx.write_u64(cursor.slot_addr, 0)
    yield from ctx.write_u64(cursor.slot_addr + 8, 0)
    cursor.read_index += 1
    yield from ctx.write_u32(cursor.queue.read_ptr_addr,
                             cursor.read_index % (1 << 32))
    return record


def rma_try_notification(ctx: HostThread, cursor: NotificationCursor):
    """Non-blocking variant: one poll; returns a Notification or None."""
    word0 = yield from ctx.read_u64(cursor.slot_addr)
    if not Notification.is_valid_word(word0):
        return None
    # The wait reads word 0 again; the host message-rate baselines include
    # that read's modeled time.
    record = yield from rma_wait_notification(ctx, cursor, max_polls=1)
    return record
