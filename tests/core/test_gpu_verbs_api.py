"""Unit tests for the GPU-resident InfiniBand Verbs API."""

import pytest

from repro import build_ib_cluster
from repro.core import (
    gpu_poll_cq,
    gpu_post_send,
    gpu_wait_cq,
    setup_ib_connection,
)
from repro.ib import IbOpcode, WcOpcode, WcStatus, Wqe
from repro.units import KIB, US


@pytest.fixture(params=["gpu", "host"])
def testbed(request):
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, 4 * KIB,
                               buffer_location=request.param)
    return cluster, conn, request.param


def write_wqe(conn, size=64, wr_id=1):
    return Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=wr_id,
               local_addr=conn.a.send_buf.base, lkey=conn.a.lkey, length=size,
               remote_addr=conn.a.remote_recv_addr, rkey=conn.a.rkey_remote)


def test_gpu_post_send_completes(testbed):
    cluster, conn, _loc = testbed
    conn.a.node.gpu.dram.write(conn.a.send_buf.base, b"V" * 64)

    def kernel(ctx):
        idx = yield from gpu_post_send(ctx, conn.a.node.nic, conn.a.qp,
                                       write_wqe(conn), 0)
        cqe, polls = yield from gpu_wait_cq(ctx, conn.a.send_cq_consumer())
        return idx, cqe, polls

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    idx, cqe, polls = h.block_result(0)
    assert idx == 1
    assert cqe.status is WcStatus.SUCCESS
    assert cqe.opcode is WcOpcode.RDMA_WRITE
    assert cqe.wr_id == 1
    cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert conn.b.node.gpu.dram.read(conn.b.recv_buf.base, 64) == b"V" * 64


def test_gpu_post_costs_442_instructions_unoptimized(testbed):
    cluster, conn, _loc = testbed
    gpu = conn.a.node.gpu
    marks = {}

    def kernel(ctx):
        before = gpu.counters.snapshot()
        yield from gpu_post_send(ctx, conn.a.node.nic, conn.a.qp,
                                 write_wqe(conn), 0, optimized=False)
        marks["instr"] = gpu.counters.diff(before).instructions_executed

    h = gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    assert marks["instr"] == 442


def test_gpu_poll_cq_miss_is_cheap(testbed):
    cluster, conn, _loc = testbed
    gpu = conn.a.node.gpu
    marks = {}

    def kernel(ctx):
        before = gpu.counters.snapshot()
        cqe = yield from gpu_poll_cq(ctx, conn.a.send_cq_consumer())
        marks["instr"] = gpu.counters.diff(before).instructions_executed
        return cqe

    h = gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    assert h.block_result(0) is None
    assert marks["instr"] < 30  # far below the 283 of a successful poll


def test_wqe_lands_in_selected_buffer(testbed):
    cluster, conn, loc = testbed

    def kernel(ctx):
        yield from gpu_post_send(ctx, conn.a.node.nic, conn.a.qp,
                                 write_wqe(conn, wr_id=9), 0)
        yield from gpu_wait_cq(ctx, conn.a.send_cq_consumer())

    gpu = conn.a.node.gpu
    before = gpu.counters.snapshot()
    h = gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    diff = gpu.counters.diff(before)
    if loc == "host":
        # Eight WQE stores + doorbell cross PCIe.
        assert diff.sysmem_write_transactions >= 9
    else:
        # Only the doorbell crosses PCIe; WQE stays in device memory.
        assert diff.sysmem_write_transactions == 1
        assert diff.global_store_accesses >= 8


def test_ping_pong_markers_via_poll_last_element(testbed):
    cluster, conn, _loc = testbed

    def sender(ctx):
        yield from ctx.store_u64(conn.a.send_buf.base + 56, 0xBEEF)
        yield from gpu_post_send(ctx, conn.a.node.nic, conn.a.qp,
                                 write_wqe(conn), 0)
        yield from gpu_wait_cq(ctx, conn.a.send_cq_consumer())

    def receiver(ctx):
        _value, polls = yield from ctx.spin_until_u64(
            conn.b.recv_buf.base + 56, lambda v: v == 0xBEEF)
        return polls

    hs = conn.a.node.gpu.launch(sender)
    hr = conn.b.node.gpu.launch(receiver)
    cluster.sim.run_until_complete(hs, hr, limit=1.0)
    assert hr.block_result(0) >= 1
