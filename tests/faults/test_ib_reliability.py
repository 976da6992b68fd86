"""IB go-back-N retransmission: RC verbs under injected loss/corruption."""

import pytest

from repro.cluster import build_ib_cluster
from repro.errors import RetryExhaustedError
from repro.faults import FaultInjector, FaultPlan, LinkFaults
from repro.ib import (
    CqConsumer,
    IbConfig,
    IbOpcode,
    IbResources,
    WcStatus,
    Wqe,
    connect_qps,
    ibv_post_recv,
    ibv_post_send,
    ibv_wait_cq,
)
from repro.sim import Simulator, join_result
from repro.units import KIB, US

FAST_RETX = IbConfig(reliability=True, retx_timeout=5 * US,
                     retx_max_timeout=80 * US, retx_max_retries=8)


def make_testbed(plan, config=FAST_RETX, seed=1):
    sim = Simulator(seed=seed)
    cluster = build_ib_cluster(nic_config=config, sim=sim)
    a, b = cluster.a, cluster.b
    res_a, res_b = IbResources(a, a.nic), IbResources(b, b.nic)
    qp_a = res_a.create_qp("host")
    qp_b = res_b.create_qp("host")
    connect_qps(qp_a, 0, qp_b, 1)
    injector = FaultInjector(sim, plan).attach(cluster.net)
    return cluster, a, b, qp_a, qp_b, injector


def test_default_config_keeps_reliability_off():
    assert not IbConfig().reliability


@pytest.mark.quick
def test_writes_complete_in_order_under_loss():
    cluster, a, b, qp_a, qp_b, injector = make_testbed(
        FaultPlan.uniform(loss=0.12, corrupt=0.08, seed=2))
    n = 10
    src = a.host_malloc(n * KIB)
    dst = b.host_malloc(n * KIB)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def sender(ctx):
        idx = 0
        for i in range(n):
            a.host_mem.write(src.base + i * KIB, bytes([i + 1]) * KIB)
            w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=100 + i,
                    local_addr=src.base + i * KIB, lkey=mr_src.lkey,
                    length=KIB, remote_addr=dst.base + i * KIB,
                    rkey=mr_dst.rkey)
            idx = yield from ibv_post_send(ctx, a.nic, qp_a, w, idx)
        consumer = CqConsumer(qp_a.send_cq)
        ids = []
        for _ in range(n):
            cqe = yield from ibv_wait_cq(ctx, consumer)
            assert cqe.status is WcStatus.SUCCESS
            ids.append(cqe.wr_id)
        return ids

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=0.1)
    assert join_result(sp) == list(range(100, 100 + n))
    for i in range(n):
        assert b.host_mem.read(dst.base + i * KIB, KIB) == bytes([i + 1]) * KIB
    assert injector.drops + injector.corruptions > 0
    assert a.nic.retransmits > 0


def test_multi_chunk_writes_survive_loss_and_corruption():
    """Payloads longer than a DMA chunk are snapshots: corrupted clones
    and replays of them still land the exact bytes."""
    cluster, a, b, qp_a, qp_b, injector = make_testbed(
        FaultPlan.uniform(loss=0.2, corrupt=0.3, seed=3))
    n, size = 3, 40 * KIB
    src = a.host_malloc(n * size)
    dst = b.host_malloc(n * size)
    data = b"".join(bytes((i + j) % 256 for j in range(256))
                    for i in range(n * size // 256))
    a.host_mem.write(src.base, data)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def sender(ctx):
        idx = 0
        for i in range(n):
            w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=i,
                    local_addr=src.base + i * size, lkey=mr_src.lkey,
                    length=size, remote_addr=dst.base + i * size,
                    rkey=mr_dst.rkey)
            idx = yield from ibv_post_send(ctx, a.nic, qp_a, w, idx)
        consumer = CqConsumer(qp_a.send_cq)
        for _ in range(n):
            cqe = yield from ibv_wait_cq(ctx, consumer)
            assert cqe.status is WcStatus.SUCCESS

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=0.1)
    join_result(sp)
    assert b.host_mem.read(dst.base, n * size) == data
    assert injector.corruptions > 0
    assert a.nic.retransmits > 0


def test_read_survives_lost_responses():
    cluster, a, b, qp_a, qp_b, injector = make_testbed(
        FaultPlan.uniform(loss=0.2, seed=6))
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
        return (yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq)))

    rp = a.cpu.spawn(reader)
    cluster.sim.run_until_complete(rp, limit=0.1)
    assert join_result(rp).status is WcStatus.SUCCESS
    assert a.host_mem.read(local.base, 2048) == b"Q" * 2048
    assert injector.drops > 0


def test_send_recv_survives_loss():
    cluster, a, b, qp_a, qp_b, injector = make_testbed(
        FaultPlan.uniform(loss=0.15, seed=4))
    src = a.host_malloc(1 * KIB)
    dst = b.host_malloc(1 * KIB)
    a.host_mem.write(src.base, b"S" * 1024)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def receiver(ctx):
        w = Wqe(opcode=IbOpcode.RECV, wr_id=5, local_addr=dst.base,
                lkey=mr_dst.lkey, length=1 * KIB)
        yield from ibv_post_recv(ctx, b.nic, qp_b, w, 0)
        return (yield from ibv_wait_cq(ctx, CqConsumer(qp_b.recv_cq)))

    def sender(ctx):
        yield from ctx.sleep(5 * US)
        w = Wqe(opcode=IbOpcode.SEND, wr_id=6, local_addr=src.base,
                lkey=mr_src.lkey, length=1 * KIB)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)
        return (yield from ibv_wait_cq(ctx, CqConsumer(qp_a.send_cq)))

    rp = b.cpu.spawn(receiver)
    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(rp, sp, limit=0.1)
    assert join_result(rp).status is WcStatus.SUCCESS
    assert join_result(sp).status is WcStatus.SUCCESS
    assert b.host_mem.read(dst.base, 1024) == b"S" * 1024


def test_same_seed_replays_identical_retransmit_history():
    def run():
        cluster, a, b, qp_a, qp_b, injector = make_testbed(
            FaultPlan.uniform(loss=0.12, seed=2), seed=9)
        src = a.host_malloc(4 * KIB)
        dst = b.host_malloc(4 * KIB)
        mr_src = a.nic.register_memory(src)
        mr_dst = b.nic.register_memory(dst)

        def sender(ctx):
            idx = 0
            for i in range(4):
                w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=i,
                        local_addr=src.base + i * KIB, lkey=mr_src.lkey,
                        length=KIB, remote_addr=dst.base + i * KIB,
                        rkey=mr_dst.rkey)
                idx = yield from ibv_post_send(ctx, a.nic, qp_a, w, idx)
            consumer = CqConsumer(qp_a.send_cq)
            for _ in range(4):
                yield from ibv_wait_cq(ctx, consumer)

        sp = a.cpu.spawn(sender)
        cluster.sim.run_until_complete(sp, limit=0.1)
        return cluster.sim.now, a.nic.retransmits, injector.drops

    assert run() == run()


def test_permanent_outage_exhausts_ib_retries():
    config = IbConfig(reliability=True, retx_timeout=2 * US,
                      retx_max_timeout=8 * US, retx_max_retries=3)
    plan = FaultPlan.for_links({(0, 1): LinkFaults(
        down_windows=((0.0, 1.0),))})
    cluster, a, b, qp_a, qp_b, _ = make_testbed(plan, config=config)
    src = a.host_malloc(64)
    dst = b.host_malloc(64)
    mr_src = a.nic.register_memory(src)
    mr_dst = b.nic.register_memory(dst)

    def sender(ctx):
        w = Wqe(opcode=IbOpcode.RDMA_WRITE, wr_id=1, local_addr=src.base,
                lkey=mr_src.lkey, length=64, remote_addr=dst.base,
                rkey=mr_dst.rkey)
        yield from ibv_post_send(ctx, a.nic, qp_a, w, 0)

    sp = a.cpu.spawn(sender)
    cluster.sim.run_until_complete(sp, limit=1e-3)
    with pytest.raises(RetryExhaustedError, match="hca0 QP1: PSN 1 unacked"):
        cluster.sim.run(until=cluster.sim.now + 1e-3)
    assert a.nic.retransmits >= config.retx_max_retries
