"""Unit tests for the GPU-resident EXTOLL RMA API."""

import pytest

from repro import build_extoll_cluster
from repro.core import (
    GpuNotificationCursor,
    gpu_rma_post,
    gpu_rma_wait_notification,
    setup_extoll_connection,
)
from repro.errors import RmaError
from repro.extoll import NotifyFlags, RmaOp, RmaUnitKind, RmaWorkRequest
from repro.units import KIB, US


@pytest.fixture
def testbed():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    return cluster, conn


def put_wr(conn, size=64, flags=NotifyFlags.REQUESTER):
    return RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                          src_nla=conn.a.send_nla.base,
                          dst_nla=conn.b.recv_nla.base, size=size, flags=flags)


def test_post_is_three_sysmem_stores(testbed):
    cluster, conn = testbed
    wr = put_wr(conn, flags=NotifyFlags.NONE)
    gpu = conn.a.node.gpu

    def kernel(ctx):
        yield from gpu_rma_post(ctx, conn.a.port.page_addr, wr)

    before = gpu.counters.snapshot()
    h = gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    diff = gpu.counters.diff(before)
    assert diff.sysmem_write_transactions == 3
    assert diff.sysmem_read_transactions == 0


def test_post_moves_data_end_to_end(testbed):
    cluster, conn = testbed
    conn.a.node.gpu.dram.write(conn.a.send_buf.base, b"Z" * 64)
    wr = put_wr(conn, flags=NotifyFlags.NONE)

    def kernel(ctx):
        yield from gpu_rma_post(ctx, conn.a.port.page_addr, wr)
        yield from ctx.fence_system()

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert conn.b.node.gpu.dram.read(conn.b.recv_buf.base, 64) == b"Z" * 64


def test_wait_notification_consumes_and_frees(testbed):
    cluster, conn = testbed
    wr = put_wr(conn)

    def kernel(ctx):
        cursor = conn.a.requester_cursor()
        yield from gpu_rma_post(ctx, conn.a.port.page_addr, wr)
        note, polls = yield from gpu_rma_wait_notification(ctx, cursor)
        return note, polls, cursor.read_index

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    note, polls, read_index = h.block_result(0)
    assert note.unit is RmaUnitKind.REQUESTER
    assert polls >= 1
    assert read_index == 1
    # The slot was freed (zeroed) and the read pointer published.
    q = conn.a.port.requester_queue
    host = conn.a.node.host_mem
    assert host.read_u64(q.slot_addr(0)) == 0
    cluster.sim.run(until=cluster.sim.now + 50 * US)  # drain posted stores
    assert host.read_u32(q.read_ptr_addr) == 1


def test_wait_notification_max_polls(testbed):
    cluster, conn = testbed

    def kernel(ctx):
        cursor = conn.a.requester_cursor()
        yield from gpu_rma_wait_notification(ctx, cursor, max_polls=5)

    h = conn.a.node.gpu.launch(kernel)
    with pytest.raises(RmaError):
        cluster.sim.run(until=cluster.sim.now + 500 * US)
    assert not h.ok


def test_poll_last_element_sees_put(testbed):
    cluster, conn = testbed

    def sender(ctx):
        yield from ctx.store_u64(conn.a.send_buf.base + 56, 0xFEED)
        yield from gpu_rma_post(ctx, conn.a.port.page_addr,
                                put_wr(conn, flags=NotifyFlags.NONE))

    def receiver(ctx):
        _value, polls = yield from ctx.spin_until_u64(
            conn.b.recv_buf.base + 56, lambda v: v == 0xFEED)
        return polls

    hs = conn.a.node.gpu.launch(sender)
    hr = conn.b.node.gpu.launch(receiver)
    cluster.sim.run_until_complete(hs, hr, limit=1.0)
    assert hr.block_result(0) >= 1


def test_sequential_notifications_arrive_in_order(testbed):
    cluster, conn = testbed
    wr = put_wr(conn)

    def kernel(ctx):
        cursor = conn.a.requester_cursor()
        seqs = []
        for _ in range(5):
            yield from gpu_rma_post(ctx, conn.a.port.page_addr, wr)
            note, _ = yield from gpu_rma_wait_notification(ctx, cursor)
            seqs.append(note.seq)
        return seqs

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    seqs = h.block_result(0)
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5
