"""Integration tests: EXTOLL put/get across the two-node cluster."""

import re

import pytest

from repro.cluster import build_extoll_cluster
from repro.errors import RmaError
from repro.extoll import (
    NotificationCursor,
    NotifyFlags,
    RmaOp,
    RmaUnitKind,
    RmaWorkRequest,
    rma_post,
    rma_wait_notification,
)
from repro.sim import join_result
from repro.units import KIB, US


@pytest.fixture
def testbed():
    cluster = build_extoll_cluster()
    a, b = cluster.a, cluster.b
    port_a = a.nic.open_port(0)
    port_b = b.nic.open_port(0)
    return cluster, a, b, port_a, port_b


def test_wait_notification_max_polls(testbed):
    cluster, a, _b, port_a, _port_b = testbed
    queue = port_a.requester_queue

    def waiter(ctx):
        yield from rma_wait_notification(ctx, NotificationCursor(queue),
                                         max_polls=300)

    a.cpu.spawn(waiter)
    with pytest.raises(RmaError, match=re.escape(
            f"notification wait on {queue.name} exceeded 300 polls")):
        cluster.sim.run(until=cluster.sim.now + 500 * US)


def test_host_controlled_put_moves_host_data(testbed):
    cluster, a, b, port_a, port_b = testbed
    src = a.host_malloc(4 * KIB)
    dst = b.host_malloc(4 * KIB)
    payload = bytes(range(256)) * 16
    a.host_mem.write(src.base, payload)

    src_nla = a.nic.register_memory(src)
    dst_nla = b.nic.register_memory(dst)

    def sender(ctx):
        w = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=1,
                           src_nla=src_nla.base, dst_nla=dst_nla.base,
                           size=4 * KIB)
        yield from rma_post(ctx, port_a.page_addr, w)
        cursor = NotificationCursor(port_a.requester_queue)
        note = yield from rma_wait_notification(ctx, cursor)
        return note

    def receiver(ctx):
        cursor = NotificationCursor(port_b.completer_queue)
        note = yield from rma_wait_notification(ctx, cursor)
        return note

    sp = a.cpu.spawn(sender)
    rp = b.cpu.spawn(receiver)
    cluster.sim.run_until_complete(sp, rp, limit=1.0)
    sent = join_result(sp)
    recv = join_result(rp)
    assert sent.unit is RmaUnitKind.REQUESTER
    assert recv.unit is RmaUnitKind.COMPLETER
    assert recv.size == 4 * KIB
    assert b.host_mem.read(dst.base, 4 * KIB) == payload


def test_multi_chunk_put_lands_the_source_as_read(testbed):
    """A put longer than a DMA chunk carries snapshots of its source: the
    sender overwrites the buffer once the requester notification says the
    transfer started, while the payload is still in flight, and the bytes
    read before that land."""
    cluster, a, b, port_a, port_b = testbed
    size = 40 * KIB
    src = a.host_malloc(size)
    dst = b.gpu_malloc(size)
    payload = bytes(range(256)) * (size // 256)
    a.host_mem.write(src.base, payload)
    src_nla = a.nic.register_memory(src)
    dst_nla = b.nic.register_memory(dst)
    pinned = []

    def sender(ctx):
        w = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=1,
                           src_nla=src_nla.base, dst_nla=dst_nla.base,
                           size=size)
        yield from rma_post(ctx, port_a.page_addr, w)
        yield from rma_wait_notification(
            ctx, NotificationCursor(port_a.requester_queue))
        pinned.append(len(a.host_mem.store._pins))
        yield from ctx.write(src.base, b"\xee" * size)

    def receiver(ctx):
        yield from rma_wait_notification(
            ctx, NotificationCursor(port_b.completer_queue))

    sp = a.cpu.spawn(sender)
    rp = b.cpu.spawn(receiver)
    cluster.sim.run_until_complete(sp, rp, limit=1.0)
    assert pinned == [1]
    assert b.gpu.dram.read(dst.base, size) == payload
    assert a.host_mem.read(src.base, size) == b"\xee" * size
    assert a.host_mem.store._pins == []


def test_put_into_gpu_memory_gpudirect(testbed):
    """GPUDirect RDMA: the NIC DMA-writes the remote GPU's device memory."""
    cluster, a, b, port_a, port_b = testbed
    src = a.host_malloc(1 * KIB)
    dst = b.gpu_malloc(1 * KIB)
    a.host_mem.write(src.base, b"G" * 1024)
    src_nla = a.nic.register_memory(src)
    dst_nla = b.nic.register_memory(dst)   # GPU BAR1 range through the ATU

    def sender(ctx):
        w = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=1,
                           src_nla=src_nla.base, dst_nla=dst_nla.base,
                           size=1024, flags=NotifyFlags.REQUESTER)
        yield from rma_post(ctx, port_a.page_addr, w)
        cursor = NotificationCursor(port_a.requester_queue)
        yield from rma_wait_notification(ctx, cursor)

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    join_result(sp)
    cluster.sim.run(until=cluster.sim.now + 100 * US)  # drain delivery
    assert b.gpu.dram.read(dst.base, 1024) == b"G" * 1024


def test_get_pulls_remote_data(testbed):
    cluster, a, b, port_a, port_b = testbed
    remote = b.host_malloc(2 * KIB)
    local = a.host_malloc(2 * KIB)
    b.host_mem.write(remote.base, b"R" * 2048)
    remote_nla = b.nic.register_memory(remote)
    local_nla = a.nic.register_memory(local)

    def getter(ctx):
        w = RmaWorkRequest(op=RmaOp.GET, port=0, dst_node=1,
                           src_nla=remote_nla.base, dst_nla=local_nla.base,
                           size=2048,
                           flags=NotifyFlags.REQUESTER | NotifyFlags.COMPLETER)
        yield from rma_post(ctx, port_a.page_addr, w)
        cursor = NotificationCursor(port_a.completer_queue)
        note = yield from rma_wait_notification(ctx, cursor)
        return note

    gp = a.cpu.spawn(getter)
    cluster.sim.run_until_complete(gp, limit=1.0)
    note = join_result(gp)
    assert note.unit is RmaUnitKind.COMPLETER
    assert a.host_mem.read(local.base, 2048) == b"R" * 2048


def test_gpu_thread_posts_wr_via_mapped_bar(testbed):
    """§III-C: the BAR page is mapped into GPU UVA; a single device thread
    posts the descriptor with three 64-bit stores."""
    cluster, a, b, port_a, port_b = testbed
    src = a.gpu_malloc(256)
    dst = b.host_malloc(256)
    a.gpu.dram.write(src.base, b"D" * 256)
    src_nla = a.nic.register_memory(src)
    dst_nla = b.nic.register_memory(dst)
    from repro.memory import AddressRange
    a.gpu.map_mmio(AddressRange(port_a.page_addr, 4096))

    def kernel(ctx):
        w = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=1,
                           src_nla=src_nla.base, dst_nla=dst_nla.base,
                           size=256, flags=NotifyFlags.NONE)
        w0, w1, w2 = w.words()
        yield from ctx.store_u64(port_a.page_addr, w0)
        yield from ctx.store_u64(port_a.page_addr + 8, w1)
        yield from ctx.store_u64(port_a.page_addr + 16, w2)
        yield from ctx.fence_system()

    h = a.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 200 * US)
    assert b.host_mem.read(dst.base, 256) == b"D" * 256


def test_multiple_ports_are_independent(testbed):
    cluster, a, b, port_a, port_b = testbed
    port_a2 = a.nic.open_port(1)
    port_b2 = b.nic.open_port(1)
    bufs = {}
    for pid, (pa, pb) in enumerate([(port_a, port_b), (port_a2, port_b2)]):
        src = a.host_malloc(64)
        dst = b.host_malloc(64)
        a.host_mem.write(src.base, bytes([pid + 1]) * 64)
        bufs[pid] = (a.nic.register_memory(src), b.nic.register_memory(dst),
                     dst, pa)

    def sender(ctx):
        for pid, (src_nla, dst_nla, dst, pa) in bufs.items():
            w = RmaWorkRequest(op=RmaOp.PUT, port=pid, dst_node=1,
                               src_nla=src_nla.base, dst_nla=dst_nla.base,
                               size=64)
            yield from rma_post(ctx, pa.page_addr, w)
        # Wait for both requester notifications on their own queues.
        for pid, (_, _, _, pa) in bufs.items():
            cur = NotificationCursor(pa.requester_queue)
            yield from rma_wait_notification(ctx, cur)

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 200 * US)
    for pid, (_, _, dst, _) in bufs.items():
        assert b.host_mem.read(dst.base, 64) == bytes([pid + 1]) * 64


def test_duplicate_port_rejected(testbed):
    cluster, a, *_ = testbed
    import pytest
    from repro.errors import RmaError
    with pytest.raises(RmaError):
        a.nic.open_port(0)


def test_notifications_disabled_produce_none(testbed):
    cluster, a, b, port_a, port_b = testbed
    src = a.host_malloc(64)
    dst = b.host_malloc(64)
    src_nla = a.nic.register_memory(src)
    dst_nla = b.nic.register_memory(dst)

    def sender(ctx):
        w = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=1,
                           src_nla=src_nla.base, dst_nla=dst_nla.base,
                           size=64, flags=NotifyFlags.NONE)
        yield from rma_post(ctx, port_a.page_addr, w)

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert a.nic.rma.notifications_written == 0
    assert b.nic.rma.notifications_written == 0
    # Queue slots untouched (word0 still zero).
    assert a.host_mem.read_u64(port_a.requester_queue.slot_addr(0)) == 0
