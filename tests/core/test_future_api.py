"""Tests for the §VI future-interface implementation."""

import pytest

from repro import build_extoll_cluster
from repro.core import (
    ExtollMode,
    gpu_rma_post_wide,
    run_extoll_pingpong,
    run_future_extoll_pingpong,
    setup_extoll_connection,
)
from repro.errors import BenchmarkError
from repro.extoll import NotifyFlags, RmaOp, RmaWorkRequest
from repro.memory import MemorySpace
from repro.obs import SpanTracer, reconcile_with_point
from repro.sim import Simulator
from repro.units import KIB, US


def setup_future_connection(cluster):
    return setup_extoll_connection(cluster, 4 * KIB,
                                   notification_location="gpu")


def test_future_queues_live_in_gpu_memory():
    cluster = build_extoll_cluster()
    conn = setup_future_connection(cluster)
    for end in (conn.a, conn.b):
        q = end.port.requester_queue
        space = end.node.address_map.space_of(q.slot_addr(0))
        assert space is MemorySpace.GPU_DRAM


def test_wide_post_is_one_sysmem_transaction():
    cluster = build_extoll_cluster()
    conn = setup_future_connection(cluster)
    gpu = conn.a.node.gpu
    wr = RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                        src_nla=conn.a.send_nla.base,
                        dst_nla=conn.b.recv_nla.base, size=64,
                        flags=NotifyFlags.NONE)

    def kernel(ctx):
        yield from gpu_rma_post_wide(ctx, conn.a.port.page_addr, wr)

    before = gpu.counters.snapshot()
    h = gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    diff = gpu.counters.diff(before)
    assert diff.sysmem_write_transactions == 1  # vs 3 for the scalar path


def test_wide_post_still_triggers_transfer():
    cluster = build_extoll_cluster()
    conn = setup_future_connection(cluster)
    conn.a.node.gpu.dram.write(conn.a.send_buf.base, b"W" * 64)
    wr = RmaWorkRequest(op=RmaOp.PUT, port=conn.a.port.port_id, dst_node=1,
                        src_nla=conn.a.send_nla.base,
                        dst_nla=conn.b.recv_nla.base, size=64,
                        flags=NotifyFlags.NONE)

    def kernel(ctx):
        yield from gpu_rma_post_wide(ctx, conn.a.port.page_addr, wr)
        yield from ctx.fence_system()

    h = conn.a.node.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 100 * US)
    assert conn.b.node.gpu.dram.read(conn.b.recv_buf.base, 64) == b"W" * 64


def test_future_pingpong_runs_and_beats_direct():
    size = 256
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    direct = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, size,
                                 iterations=8, warmup=2)
    cluster2 = build_extoll_cluster()
    conn2 = setup_future_connection(cluster2)
    future = run_future_extoll_pingpong(cluster2, conn2, size,
                                        iterations=8, warmup=2)
    assert future.latency < direct.latency * 0.85


def test_future_polling_runs_out_of_l2():
    cluster = build_extoll_cluster()
    conn = setup_future_connection(cluster)
    gpu = conn.a.node.gpu
    before = gpu.counters.snapshot()
    run_future_extoll_pingpong(cluster, conn, 256, iterations=10, warmup=0)
    diff = gpu.counters.diff(before)
    # Wide WR posts are the only sysmem stores; no sysmem polling reads.
    assert diff.sysmem_write_transactions == 10
    assert diff.sysmem_read_transactions == 0
    assert diff.l2_read_hits > 0


def test_future_pingpong_validation():
    cluster = build_extoll_cluster()
    conn = setup_future_connection(cluster)
    with pytest.raises(BenchmarkError):
        run_future_extoll_pingpong(cluster, conn, 0)
    with pytest.raises(BenchmarkError):
        run_future_extoll_pingpong(cluster, conn, 64 * KIB)
    with pytest.raises(BenchmarkError):
        run_future_extoll_pingpong(cluster, conn, 64, iterations=0)


def test_traced_future_pingpong_records_phases_and_bench_span():
    """The §VI driver times its ping side with the shared skeleton: one
    phase span per measured round and step, reconciling with its
    LatencyPoint, inside one ``pingpong:future`` bench span."""
    iterations = 8
    tracer = SpanTracer()
    cluster = build_extoll_cluster(sim=Simulator(tracer=tracer))
    conn = setup_future_connection(cluster)
    point = run_future_extoll_pingpong(cluster, conn, 64,
                                       iterations=iterations, warmup=2)
    assert len(tracer.spans_named("wr-generation")) == iterations
    assert len(tracer.spans_named("polling")) == iterations
    res = reconcile_with_point(tracer, point, iterations)
    assert res["ok"], res
    bench = [s.name for s in tracer.spans if s.category == "bench"]
    assert bench == ["pingpong:future"]
