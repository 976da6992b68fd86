"""Integration tests: InfiniBand verbs across the two-node cluster."""

import pytest

from repro.cluster import build_ib_cluster
from repro.errors import QpStateError, VerbsError
from repro.ib import (
    CqConsumer,
    IbOpcode,
    IbResources,
    WcOpcode,
    WcStatus,
    Wqe,
    connect_qps,
    ibv_post_recv,
    ibv_post_send,
    ibv_wait_cq,
)
from repro.sim import join_result
from repro.units import KIB, US


@pytest.fixture
def testbed():
    cluster = build_ib_cluster()
    a, b = cluster.a, cluster.b
    res_a, res_b = IbResources(a, a.nic), IbResources(b, b.nic)
    qp_a = res_a.create_qp("host")
    qp_b = res_b.create_qp("host")
    connect_qps(qp_a, 0, qp_b, 1)
    return cluster, a, b, qp_a, qp_b


def test_rdma_write_moves_data_and_completes(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    src = a.host_malloc(4 * KIB)
    dst = b.host_malloc(4 * KIB)
    payload = bytes(range(256)) * 16
    a.host_mem.write(src.base, payload)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def sender(ctx):
        w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=77, local_addr=src.base,
                lkey=mr_src.lkey, length=4 * KIB, remote_addr=dst.base,
                rkey=mr_dst.rkey)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq))
        return cqe

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    cqe = join_result(sp)
    assert cqe.status is WcStatus.SUCCESS
    assert cqe.opcode is WcOpcode.RDMA_WRITE
    assert cqe.wr_id == 77
    assert cqe.byte_len == 4 * KIB
    assert b.host_mem.read(dst.base, 4 * KIB) == payload


def test_send_recv_roundtrip(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    src = a.host_malloc(1 * KIB)
    dst = b.host_malloc(1 * KIB)
    a.host_mem.write(src.base, b"S" * 1024)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def receiver(ctx):
        w = Wqe(opcode=IbOpcode.RECV, wr_id=5, local_addr=dst.base,
                lkey=mr_dst.lkey, length=1 * KIB)
        yield from ibv_post_recv(ctx, b.nic, qp_b, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_b.recv_cq))
        return cqe

    def sender(ctx):
        yield from ctx.sleep(5 * US)  # let the receive get posted
        w = Wqe(opcode=IbOpcode.SEND, wr_id=6, local_addr=src.base,
                lkey=mr_src.lkey, length=1 * KIB)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq))
        return cqe

    rp = b.cpu.spawn(receiver)
    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(rp, sp, limit=1.0)
    rcqe, scqe = join_result(rp), join_result(sp)
    assert rcqe.opcode is WcOpcode.RECV
    assert rcqe.wr_id == 5
    assert scqe.opcode is WcOpcode.SEND
    assert b.host_mem.read(dst.base, 1024) == b"S" * 1024


def test_send_without_recv_fails(testbed):
    """§IV-A: a SEND with no matching receive request fails."""
    cluster, a, b, qp_a, qp_b = testbed
    src = a.host_malloc(64)
    mr_src = a.nic.register_memory(src)

    def sender(ctx):
        w = Wqe(opcode=IbOpcode.SEND, wr_id=1, local_addr=src.base,
                lkey=mr_src.lkey, length=64)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    with pytest.raises(VerbsError, match="receiver-not-ready"):
        cluster.sim.run(until=cluster.sim.now + 200 * US)


def test_rdma_write_with_immediate_completes_both_sides(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    src = a.host_malloc(256)
    dst = b.host_malloc(256)
    a.host_mem.write(src.base, b"I" * 256)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def receiver(ctx):
        # Receive address may be zero for write-with-imm (§IV-A).
        w = Wqe(opcode=IbOpcode.RECV, wr_id=0, local_addr=0, lkey=0, length=256)
        yield from ibv_post_recv(ctx, b.nic, qp_b, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_b.recv_cq))
        return cqe

    def sender(ctx):
        yield from ctx.sleep(5 * US)
        w = Wqe(opcode=IbOpcode.RDMA_WRITE_WITH_IMM, wr_id=9,
                local_addr=src.base, lkey=mr_src.lkey, length=256,
                remote_addr=dst.base, rkey=mr_dst.rkey, immediate=0x1234)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq))
        return cqe

    rp = b.cpu.spawn(receiver)
    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(rp, sp, limit=1.0)
    rcqe = join_result(rp)
    assert rcqe.opcode is WcOpcode.RECV_RDMA_WITH_IMM
    assert rcqe.immediate == 0x1234
    assert b.host_mem.read(dst.base, 256) == b"I" * 256


def test_rdma_read_pulls_remote_data(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    local = a.host_malloc(2 * KIB)
    remote = b.host_malloc(2 * KIB)
    b.host_mem.write(remote.base, b"Q" * 2048)
    mr_local = a.nic.register_memory(local)
    mr_remote = b.nic.register_memory(remote)

    def reader(ctx):
        w = Wqe(opcode=IbOpcode.RDMA_READ, wr_id=3, local_addr=local.base,
                lkey=mr_local.lkey, length=2048, remote_addr=remote.base,
                rkey=mr_remote.rkey)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq))
        return cqe

    rp = a.cpu.spawn(reader)
    cluster.sim.run_until_complete(rp, limit=1.0)
    cqe = join_result(rp)
    assert cqe.opcode is WcOpcode.RDMA_READ
    assert a.host_mem.read(local.base, 2048) == b"Q" * 2048


def test_multi_chunk_rdma_write_then_read_back(testbed):
    """Transfers longer than a DMA chunk: a write to GPU memory, then a
    read of it back into another host buffer."""
    cluster, a, b, qp_a, qp_b = testbed
    size = 40 * KIB
    src = a.host_malloc(size)
    back = a.host_malloc(size)
    remote = b.gpu_malloc(size)
    payload = bytes(range(255, -1, -1)) * (size // 256)
    a.host_mem.write(src.base, payload)
    mr_src = a.nic.register_memory(src)
    mr_back = a.nic.register_memory(back)
    mr_remote = b.nic.register_memory(remote)

    def body(ctx):
        consumer = CqConsumer(qp_a.send_cq)
        w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=1, local_addr=src.base,
                lkey=mr_src.lkey, length=size, remote_addr=remote.base,
                rkey=mr_remote.rkey)
        idx = yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        yield from ibv_wait_cq(ctx, consumer)
        r = Wqe(opcode=IbOpcode.RDMA_READ, wr_id=2, local_addr=back.base,
                lkey=mr_back.lkey, length=size, remote_addr=remote.base,
                rkey=mr_remote.rkey)
        yield from ibv_post_send(ctx, a.nic, qp_a, r, idx)
        return (yield from ibv_wait_cq(ctx, consumer))

    p = a.cpu.spawn(body)
    cluster.sim.run_until_complete(p, limit=1.0)
    assert join_result(p).byte_len == size
    assert b.gpu.dram.read(remote.base, size) == payload
    assert a.host_mem.read(back.base, size) == payload


def test_gpu_resident_buffers_work(testbed):
    """dev2devBufOnGPU: rings + CQ + payload all in GPU device memory."""
    cluster, a, b, _, _ = testbed
    res_a, res_b = IbResources(a, a.nic), IbResources(b, b.nic)
    qp_a = res_a.create_qp("gpu")
    qp_b = res_b.create_qp("gpu")
    connect_qps(qp_a, 0, qp_b, 1)
    src = a.gpu_malloc(1 * KIB)
    dst = b.gpu_malloc(1 * KIB)
    a.gpu.dram.write(src.base, b"g" * 1024)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def sender(ctx):
        w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=1, local_addr=src.base,
                lkey=mr_src.lkey, length=1024, remote_addr=dst.base,
                rkey=mr_dst.rkey)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        cqe = yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq))
        return cqe

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    assert join_result(sp).status is WcStatus.SUCCESS
    assert b.gpu.dram.read(dst.base, 1024) == b"g" * 1024


def test_unconnected_qp_rejects_send(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    res_a = IbResources(a, a.nic)
    lone_qp = res_a.create_qp("host")
    src = a.host_malloc(64)
    mr = a.nic.register_memory(src)

    def sender(ctx):
        w = Wqe(opcode=IbOpcode.SEND, wr_id=1, local_addr=src.base,
                lkey=mr.lkey, length=64)
        yield from ibv_post_send(ctx, a.nic, lone_qp, w, 0)

    a.cpu.spawn(sender)
    with pytest.raises(QpStateError):
        cluster.sim.run(until=cluster.sim.now + 100 * US)


def test_bad_rkey_rejected(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    src = a.host_malloc(64)
    dst = b.host_malloc(64)
    mr_src = a.nic.register_memory(src)
    b.nic.register_memory(dst)

    def sender(ctx):
        w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=1, local_addr=src.base,
                lkey=mr_src.lkey, length=64, remote_addr=dst.base,
                rkey=0xBADBAD)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    from repro.errors import RegistrationError
    with pytest.raises(RegistrationError):
        cluster.sim.run(until=cluster.sim.now + 200 * US)
    assert b.host_mem.read(dst.base, 64) == bytes(64)  # nothing was written


def test_multiple_writes_complete_in_order(testbed):
    cluster, a, b, qp_a, qp_b = testbed
    src = a.host_malloc(8 * KIB)
    dst = b.host_malloc(8 * KIB)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def sender(ctx):
        idx = 0
        for i in range(4):
            a.host_mem.write(src.base + i * KIB, bytes([i + 1]) * KIB)
            w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=100 + i,
                    local_addr=src.base + i * KIB, lkey=mr_src.lkey,
                    length=KIB, remote_addr=dst.base + i * KIB,
                    rkey=mr_dst.rkey)
            idx = yield from ibv_post_send(ctx, a.nic, qp_a, w, idx)
        consumer = CqConsumer(qp_a.send_cq)
        ids = []
        for _ in range(4):
            cqe = yield from ibv_wait_cq(ctx, consumer)
            ids.append(cqe.wr_id)
        return ids

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1.0)
    assert join_result(sp) == [100, 101, 102, 103]
    for i in range(4):
        assert b.host_mem.read(dst.base + i * KIB, KIB) == bytes([i + 1]) * KIB
