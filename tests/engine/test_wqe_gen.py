"""Warp-parallel generation and the batched-doorbell posting path."""

import pytest

from repro import build_extoll_cluster
from repro.core import (
    gpu_rma_post,
    gpu_rma_wait_notification,
    setup_extoll_connection,
)
from repro.engine import (
    engine_post_batch,
    engine_rma_post,
    engine_ring_batch_doorbell,
    engine_stage_batch,
)
from repro.errors import RmaError
from repro.extoll import NotifyFlags, RmaOp, RmaWorkRequest
from repro.units import KIB, US


@pytest.fixture
def testbed():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    return cluster, conn


def put_wr(conn, size=64, offset=0, flags=NotifyFlags.REQUESTER):
    return RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                          src_nla=conn.a.send_nla.base + offset,
                          dst_nla=conn.b.recv_nla.base + offset,
                          size=size, flags=flags)


def test_warp_parallel_post_beats_the_scalar_post(testbed):
    """Same descriptor, same port: collaborative assembly plus the wide
    store must be strictly cheaper than the scalar three-store post."""
    cluster, conn = testbed
    wr = put_wr(conn, flags=NotifyFlags.NONE)
    page = conn.a.port.page_addr

    def kernel(ctx):
        t0 = ctx.sim.now
        yield from gpu_rma_post(ctx, page, wr)
        scalar = ctx.sim.now - t0
        engine = yield from engine_rma_post(ctx, page, wr, lanes=8)
        return scalar, engine

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    scalar, engine = h.block_result(0)
    assert engine < scalar


def test_post_batch_delivers_all_descriptors_in_order(testbed):
    """Three puts staged behind ONE doorbell: every payload lands, every
    notification arrives in posting order, and the NIC counts one batched
    doorbell carrying three descriptors."""
    cluster, conn = testbed
    gpu_a = conn.a.node.gpu
    for i in range(3):
        gpu_a.dram.write(conn.a.send_buf.base + i * 64, bytes([0x40 + i]) * 64)
    wrs = [put_wr(conn, size=64, offset=i * 64) for i in range(3)]
    ncfg = conn.a.node.nic.config
    nic = conn.a.node.nic

    def kernel(ctx):
        cursor = conn.a.requester_cursor()
        yield from engine_post_batch(ctx, conn.a.port.page_addr,
                                     ncfg.batch_region_offset,
                                     ncfg.batch_doorbell_offset, wrs)
        for _ in wrs:
            yield from gpu_rma_wait_notification(ctx, cursor)

    h = gpu_a.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert nic.batch_doorbells == 1
    assert nic.batch_descriptors == 3
    gpu_b = conn.b.node.gpu
    for i in range(3):
        assert gpu_b.dram.read(conn.b.recv_buf.base + i * 64, 64) \
            == bytes([0x40 + i]) * 64


def test_staging_alone_triggers_nothing(testbed):
    """Writes into the batch region must NOT post — only the doorbell
    does.  This is what lets descriptors accumulate between flushes."""
    cluster, conn = testbed
    wrs = [put_wr(conn, size=64, flags=NotifyFlags.NONE)]
    ncfg = conn.a.node.nic.config
    marker = b"\xee" * 64
    conn.a.node.gpu.dram.write(conn.a.send_buf.base, marker)

    def kernel(ctx):
        yield from engine_stage_batch(ctx, conn.a.port.page_addr,
                                      ncfg.batch_region_offset, wrs)
        yield from ctx.fence_system()

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert conn.a.node.nic.batch_doorbells == 0
    assert conn.b.node.gpu.dram.read(conn.b.recv_buf.base, 64) != marker


def test_empty_batch_is_rejected(testbed):
    cluster, conn = testbed
    ncfg = conn.a.node.nic.config

    def kernel(ctx):
        with pytest.raises(RmaError):
            yield from engine_stage_batch(ctx, conn.a.port.page_addr,
                                          ncfg.batch_region_offset, [])

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)


def test_doorbell_count_must_match_staged_region(testbed):
    """A count outside 1..max_batch_descriptors is a programming error the
    NIC rejects (the delivery faults and the run raises it) rather than
    decoding garbage: no doorbell is accounted and no descriptor reaches
    the requester."""
    cluster, conn = testbed
    ncfg = conn.a.node.nic.config
    nic = conn.a.node.nic
    bogus = ncfg.max_batch_descriptors + 1

    def kernel(ctx):
        yield from engine_ring_batch_doorbell(ctx, conn.a.port.page_addr,
                                              ncfg.batch_doorbell_offset,
                                              bogus)

    conn.a.node.gpu.launch(kernel)
    with pytest.raises(RmaError, match="batch doorbell count"):
        cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert nic.batch_doorbells == 0
    assert nic.batch_descriptors == 0


def test_batch_region_capacity_matches_the_page_layout(testbed):
    _, conn = testbed
    ncfg = conn.a.node.nic.config
    span = ncfg.batch_doorbell_offset - ncfg.batch_region_offset
    assert ncfg.max_batch_descriptors == span // 24
    assert ncfg.max_batch_descriptors >= 8   # room for the default batch
