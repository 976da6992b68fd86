"""Ping-pong latency microbenchmarks (Figs. 1a and 4a, Fig. 3 phase split).

One iteration: the ping node sends ``size`` bytes to the pong node; the pong
node detects arrival and sends ``size`` bytes back; the ping node detects the
reply.  Reported latency is the half round trip, averaged over the measured
iterations (after warmup).  GPU payload buffers on both sides — every
configuration is *dev2dev*; only the control path differs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import (
    NotifyFlags,
    RmaOp,
    RmaWorkRequest,
    rma_post,
    rma_wait_notification,
)
from ..ib import IbOpcode, Wqe, ibv_post_recv, ibv_post_send, ibv_wait_cq
from ..sim import NULL_SPAN
from .gpu_rma import gpu_rma_post, gpu_rma_wait_notification
from .gpu_verbs import gpu_post_send, gpu_wait_cq
from .modes import ExtollMode, IbMode
from .results import LatencyPoint
from .setup import ExtollConnection, IbConnection

# Flag-page layout for the assisted modes (host memory, GPU-mapped).
FLAG_REQUEST = 0    # GPU -> CPU: "send message i"
FLAG_SENT = 8       # CPU -> GPU: "message i is on the wire"
FLAG_ARRIVED = 16   # CPU -> GPU: "message i has arrived"


def _marker_offset(size: int) -> int:
    return max(0, size - 8)


def _marker_predicate(size: int, expected: int):
    if size >= 8:
        return lambda v: v == expected
    return lambda v: (v & 0xFFFFFFFF) == (expected & 0xFFFFFFFF)


def _gpu_write_marker(ctx, buf_base: int, size: int, value: int):
    """Stamp the last element of the outgoing message (device memory)."""
    if size >= 8:
        yield from ctx.store_u64(buf_base + _marker_offset(size), value)
    else:
        yield from ctx.store_u32(buf_base, value)


def _validate(size: int, iterations: int, warmup: int) -> None:
    if size <= 0:
        raise BenchmarkError(f"message size must be positive, got {size}")
    if iterations < 1 or warmup < 0:
        raise BenchmarkError("need iterations >= 1 and warmup >= 0")


@dataclass
class _PingTiming:
    start: float = 0.0
    end: float = 0.0
    post_time: float = 0.0
    poll_time: float = 0.0


def _phase(trc, name: str, measured: bool, i: int):
    """A driver-level phase span on the ``ping`` track, opened only for
    measured iterations so its summed duration reconciles exactly with the
    ``LatencyPoint`` post/poll accumulators (the ``trace`` CLI checks this)."""
    if not measured:
        return NULL_SPAN
    return trc.begin("phase", name, track="ping", iter=i)


# =============================================================================
# EXTOLL
# =============================================================================

def _extoll_wr(end, peer, size: int, flags: NotifyFlags) -> RmaWorkRequest:
    return RmaWorkRequest(
        op=RmaOp.PUT, port=end.port.port_id, dst_node=peer.node.node_id,
        src_nla=end.send_nla.base, dst_nla=peer.recv_nla.base, size=size,
        flags=flags)


def run_extoll_pingpong(cluster: Cluster, conn: ExtollConnection,
                        mode: ExtollMode, size: int, iterations: int = 30,
                        warmup: int = 3) -> LatencyPoint:
    """Run one ping-pong measurement; returns the half-round-trip latency
    with the Fig. 3 post/poll phase split (ping side)."""
    _validate(size, iterations, warmup)
    if size > conn.a.send_buf.size:
        raise BenchmarkError(f"size {size} exceeds buffer {conn.a.send_buf.size}")
    total = iterations + warmup
    timing = _PingTiming()

    # Make the connection reusable across measurements: clear flag pages and
    # stale markers (functional setup, outside the timed region).
    off = _marker_offset(size)
    for end in (conn.a, conn.b):
        end.reset_flags()
        end.node.gpu.dram.write_u64(end.recv_buf.base + off, 0)
        end.node.gpu.l2.invalidate(end.recv_buf.base + off, 8)

    if mode is ExtollMode.DIRECT:
        handles = _extoll_direct(cluster, conn, size, total, warmup, timing)
    elif mode is ExtollMode.POLL_ON_GPU:
        handles = _extoll_poll_on_gpu(cluster, conn, size, total, warmup, timing)
    elif mode is ExtollMode.ASSISTED:
        handles = _extoll_assisted(cluster, conn, size, total, warmup, timing)
    elif mode is ExtollMode.HOST_CONTROLLED:
        handles = _extoll_host_controlled(cluster, conn, size, total, warmup,
                                          timing)
    else:  # pragma: no cover
        raise BenchmarkError(f"unknown mode {mode}")

    trc = cluster.sim.tracer
    bench = (trc.begin("bench", f"pingpong:{mode.value}", track="bench",
                       size=size, iterations=iterations, warmup=warmup)
             if trc.enabled else NULL_SPAN)
    cluster.sim.run_until_complete(*handles, limit=cluster.sim.now + 600.0)
    bench.end()
    elapsed = timing.end - timing.start
    return LatencyPoint(size=size, latency=elapsed / (2 * iterations),
                        post_time=timing.post_time / iterations,
                        poll_time=timing.poll_time / iterations)


def _extoll_direct(cluster, conn, size, total, warmup, timing):
    """GPU posts; GPU polls requester + completer notifications in host
    memory (dev2dev-direct)."""
    flags = NotifyFlags.REQUESTER | NotifyFlags.COMPLETER
    wr_ping = _extoll_wr(conn.a, conn.b, size, flags)
    wr_pong = _extoll_wr(conn.b, conn.a, size, flags)

    def ping(ctx):
        trc = ctx.sim.tracer
        req_cur = conn.a.requester_cursor()
        cmpl_cur = conn.a.completer_cursor()
        for i in range(1, total + 1):
            if i == warmup + 1:
                timing.start = ctx.sim.now
            measured = trc.enabled and i > warmup
            span = _phase(trc, "wr-generation", measured, i)
            t0 = ctx.sim.now
            yield from gpu_rma_post(ctx, conn.a.port.page_addr, wr_ping)
            t1 = ctx.sim.now
            span.end()
            span = _phase(trc, "polling", measured, i)
            yield from gpu_rma_wait_notification(ctx, req_cur)
            yield from gpu_rma_wait_notification(ctx, cmpl_cur)
            span.end()
            if i > warmup:
                timing.post_time += t1 - t0
                timing.poll_time += ctx.sim.now - t1
        timing.end = ctx.sim.now

    def pong(ctx):
        req_cur = conn.b.requester_cursor()
        cmpl_cur = conn.b.completer_cursor()
        for i in range(1, total + 1):
            yield from gpu_rma_wait_notification(ctx, cmpl_cur)
            yield from gpu_rma_post(ctx, conn.b.port.page_addr, wr_pong)
            yield from gpu_rma_wait_notification(ctx, req_cur)

    return [conn.a.node.gpu.launch(ping), conn.b.node.gpu.launch(pong)]


def _extoll_poll_on_gpu(cluster, conn, size, total, warmup, timing):
    """GPU posts; completion detected by polling the last received element
    in device memory (dev2dev-pollOnGPU).  No notifications are created."""
    wr_ping = _extoll_wr(conn.a, conn.b, size, NotifyFlags.NONE)
    wr_pong = _extoll_wr(conn.b, conn.a, size, NotifyFlags.NONE)
    off = _marker_offset(size)

    def ping(ctx):
        trc = ctx.sim.tracer
        for i in range(1, total + 1):
            if i == warmup + 1:
                timing.start = ctx.sim.now
            measured = trc.enabled and i > warmup
            span = _phase(trc, "wr-generation", measured, i)
            t0 = ctx.sim.now
            yield from _gpu_write_marker(ctx, conn.a.send_buf.base, size, i)
            yield from gpu_rma_post(ctx, conn.a.port.page_addr, wr_ping)
            t1 = ctx.sim.now
            span.end()
            span = _phase(trc, "polling", measured, i)
            yield from ctx.spin_until_u64(conn.a.recv_buf.base + off,
                                          _marker_predicate(size, i))
            span.end()
            if i > warmup:
                timing.post_time += t1 - t0
                timing.poll_time += ctx.sim.now - t1
        timing.end = ctx.sim.now

    def pong(ctx):
        for i in range(1, total + 1):
            yield from ctx.spin_until_u64(conn.b.recv_buf.base + off,
                                          _marker_predicate(size, i))
            yield from _gpu_write_marker(ctx, conn.b.send_buf.base, size, i)
            yield from gpu_rma_post(ctx, conn.b.port.page_addr, wr_pong)

    return [conn.a.node.gpu.launch(ping), conn.b.node.gpu.launch(pong)]


def _extoll_assisted(cluster, conn, size, total, warmup, timing):
    """GPU kernels synchronize with per-node CPU proxies through flags in
    host memory (dev2dev-assisted)."""
    handles = []
    for end, is_ping in ((conn.a, True), (conn.b, False)):
        peer = conn.peer_of(end)
        flags = end.flag_page.base
        wr = _extoll_wr(end, peer, size, NotifyFlags.REQUESTER | NotifyFlags.COMPLETER)

        def gpu_ping(ctx, flags=flags):
            trc = ctx.sim.tracer
            for i in range(1, total + 1):
                if i == warmup + 1:
                    timing.start = ctx.sim.now
                measured = trc.enabled and i > warmup
                span = _phase(trc, "wr-generation", measured, i)
                t0 = ctx.sim.now
                yield from ctx.store_u64(flags + FLAG_REQUEST, i)
                yield from ctx.spin_until_u64(flags + FLAG_SENT, lambda v, i=i: v == i)
                t1 = ctx.sim.now
                span.end()
                span = _phase(trc, "polling", measured, i)
                yield from ctx.spin_until_u64(flags + FLAG_ARRIVED, lambda v, i=i: v == i)
                span.end()
                if i > warmup:
                    timing.post_time += t1 - t0
                    timing.poll_time += ctx.sim.now - t1
            timing.end = ctx.sim.now

        def gpu_pong(ctx, flags=flags):
            for i in range(1, total + 1):
                yield from ctx.spin_until_u64(flags + FLAG_ARRIVED, lambda v, i=i: v == i)
                yield from ctx.store_u64(flags + FLAG_REQUEST, i)
                yield from ctx.spin_until_u64(flags + FLAG_SENT, lambda v, i=i: v == i)

        def cpu_send_proxy(ctx, end=end, wr=wr, flags=flags):
            req_cur = end.requester_cursor()
            for i in range(1, total + 1):
                yield from ctx.spin_until_u64(flags + FLAG_REQUEST,
                                              lambda v, i=i: v >= i)
                yield from rma_post(ctx, end.port.page_addr, wr)
                yield from rma_wait_notification(ctx, req_cur)
                yield from ctx.write_u64(flags + FLAG_SENT, i)

        def cpu_recv_proxy(ctx, end=end, flags=flags):
            cmpl_cur = end.completer_cursor()
            for i in range(1, total + 1):
                yield from rma_wait_notification(ctx, cmpl_cur)
                yield from ctx.write_u64(flags + FLAG_ARRIVED, i)

        handles.append(end.node.gpu.launch(gpu_ping if is_ping else gpu_pong))
        handles.append(end.node.cpu.spawn(cpu_send_proxy, name=f"proxy-send{end.node.node_id}"))
        handles.append(end.node.cpu.spawn(cpu_recv_proxy, name=f"proxy-recv{end.node.node_id}"))
    return handles


def _extoll_host_controlled(cluster, conn, size, total, warmup, timing):
    """CPUs drive everything; data still moves GPU-to-GPU by GPUDirect."""
    flags = NotifyFlags.REQUESTER | NotifyFlags.COMPLETER
    wr_ping = _extoll_wr(conn.a, conn.b, size, flags)
    wr_pong = _extoll_wr(conn.b, conn.a, size, flags)

    def ping(ctx):
        trc = ctx.sim.tracer
        req_cur = conn.a.requester_cursor()
        cmpl_cur = conn.a.completer_cursor()
        for i in range(1, total + 1):
            if i == warmup + 1:
                timing.start = ctx.sim.now
            measured = trc.enabled and i > warmup
            span = _phase(trc, "wr-generation", measured, i)
            t0 = ctx.sim.now
            yield from rma_post(ctx, conn.a.port.page_addr, wr_ping)
            t1 = ctx.sim.now
            span.end()
            span = _phase(trc, "polling", measured, i)
            yield from rma_wait_notification(ctx, req_cur)
            yield from rma_wait_notification(ctx, cmpl_cur)
            span.end()
            if i > warmup:
                timing.post_time += t1 - t0
                timing.poll_time += ctx.sim.now - t1
        timing.end = ctx.sim.now

    def pong(ctx):
        req_cur = conn.b.requester_cursor()
        cmpl_cur = conn.b.completer_cursor()
        for i in range(1, total + 1):
            yield from rma_wait_notification(ctx, cmpl_cur)
            yield from rma_post(ctx, conn.b.port.page_addr, wr_pong)
            yield from rma_wait_notification(ctx, req_cur)

    return [conn.a.node.cpu.spawn(ping, name="ping"),
            conn.b.node.cpu.spawn(pong, name="pong")]


# =============================================================================
# InfiniBand
# =============================================================================

def _ib_write_wqe(end, size: int, wr_id: int,
                  opcode: IbOpcode = IbOpcode.RDMA_WRITE,
                  immediate: int = 0) -> Wqe:
    return Wqe(opcode=opcode, wr_id=wr_id, local_addr=end.send_buf.base,
               lkey=end.lkey, length=size, remote_addr=end.remote_recv_addr,
               rkey=end.rkey_remote, immediate=immediate)


def run_ib_pingpong(cluster: Cluster, conn: IbConnection, mode: IbMode,
                    size: int, iterations: int = 30,
                    warmup: int = 3) -> LatencyPoint:
    _validate(size, iterations, warmup)
    if size > conn.a.send_buf.size:
        raise BenchmarkError(f"size {size} exceeds buffer {conn.a.send_buf.size}")
    total = iterations + warmup
    timing = _PingTiming()

    off = _marker_offset(size)
    for end in (conn.a, conn.b):
        end.reset_flags()
        end.node.gpu.dram.write_u64(end.recv_buf.base + off, 0)
        end.node.gpu.l2.invalidate(end.recv_buf.base + off, 8)

    if mode in (IbMode.BUF_ON_GPU, IbMode.BUF_ON_HOST):
        handles = _ib_gpu_controlled(cluster, conn, size, total, warmup, timing)
    elif mode is IbMode.ASSISTED:
        handles = _ib_assisted(cluster, conn, size, total, warmup, timing)
    elif mode is IbMode.HOST_CONTROLLED:
        handles = _ib_host_controlled(cluster, conn, size, total, warmup, timing)
    else:  # pragma: no cover
        raise BenchmarkError(f"unknown mode {mode}")

    trc = cluster.sim.tracer
    bench = (trc.begin("bench", f"pingpong:{mode.value}", track="bench",
                       size=size, iterations=iterations, warmup=warmup)
             if trc.enabled else NULL_SPAN)
    cluster.sim.run_until_complete(*handles, limit=cluster.sim.now + 600.0)
    bench.end()
    elapsed = timing.end - timing.start
    return LatencyPoint(size=size, latency=elapsed / (2 * iterations),
                        post_time=timing.post_time / iterations,
                        poll_time=timing.poll_time / iterations)


def _ib_gpu_controlled(cluster, conn, size, total, warmup, timing):
    """dev2dev-bufOnGPU / bufOnHost: GPU posts RDMA writes and polls the last
    received element; the buffer location is baked into the connection."""
    off = _marker_offset(size)

    def ping(ctx):
        trc = ctx.sim.tracer
        consumer = conn.a.send_cq_consumer()
        for i in range(1, total + 1):
            if i == warmup + 1:
                timing.start = ctx.sim.now
            measured = trc.enabled and i > warmup
            span = _phase(trc, "wr-generation", measured, i)
            t0 = ctx.sim.now
            yield from _gpu_write_marker(ctx, conn.a.send_buf.base, size, i)
            wqe = _ib_write_wqe(conn.a, size, wr_id=i)
            conn.a.sq_index = yield from gpu_post_send(
                ctx, conn.a.node.nic, conn.a.qp, wqe, conn.a.sq_index)
            t1 = ctx.sim.now
            span.end()
            span = _phase(trc, "polling", measured, i)
            yield from gpu_wait_cq(ctx, consumer)
            yield from ctx.spin_until_u64(conn.a.recv_buf.base + off,
                                          _marker_predicate(size, i))
            span.end()
            if i > warmup:
                timing.post_time += t1 - t0
                timing.poll_time += ctx.sim.now - t1
        timing.end = ctx.sim.now

    def pong(ctx):
        consumer = conn.b.send_cq_consumer()
        for i in range(1, total + 1):
            yield from ctx.spin_until_u64(conn.b.recv_buf.base + off,
                                          _marker_predicate(size, i))
            yield from _gpu_write_marker(ctx, conn.b.send_buf.base, size, i)
            wqe = _ib_write_wqe(conn.b, size, wr_id=i)
            conn.b.sq_index = yield from gpu_post_send(
                ctx, conn.b.node.nic, conn.b.qp, wqe, conn.b.sq_index)
            yield from gpu_wait_cq(ctx, consumer)

    return [conn.a.node.gpu.launch(ping), conn.b.node.gpu.launch(pong)]


def _ib_assisted(cluster, conn, size, total, warmup, timing):
    """dev2dev-assisted: the GPU triggers a CPU proxy by writing a flag; the
    CPU runs the verbs (write-with-immediate so the host sees arrivals)."""
    handles = []
    for end, is_ping in ((conn.a, True), (conn.b, False)):
        flags = end.flag_page.base

        def gpu_ping(ctx, flags=flags):
            trc = ctx.sim.tracer
            for i in range(1, total + 1):
                if i == warmup + 1:
                    timing.start = ctx.sim.now
                measured = trc.enabled and i > warmup
                span = _phase(trc, "wr-generation", measured, i)
                t0 = ctx.sim.now
                yield from ctx.store_u64(flags + FLAG_REQUEST, i)
                yield from ctx.spin_until_u64(flags + FLAG_SENT, lambda v, i=i: v == i)
                t1 = ctx.sim.now
                span.end()
                span = _phase(trc, "polling", measured, i)
                yield from ctx.spin_until_u64(flags + FLAG_ARRIVED, lambda v, i=i: v == i)
                span.end()
                if i > warmup:
                    timing.post_time += t1 - t0
                    timing.poll_time += ctx.sim.now - t1
            timing.end = ctx.sim.now

        def gpu_pong(ctx, flags=flags):
            for i in range(1, total + 1):
                yield from ctx.spin_until_u64(flags + FLAG_ARRIVED, lambda v, i=i: v == i)
                yield from ctx.store_u64(flags + FLAG_REQUEST, i)
                yield from ctx.spin_until_u64(flags + FLAG_SENT, lambda v, i=i: v == i)

        def cpu_proxy(ctx, end=end, flags=flags):
            hca = end.node.nic
            send_consumer = end.host_send_cq_consumer()
            recv_consumer = end.host_recv_cq_consumer()
            # Pre-post a batch of receives (addresses may be zero, §IV-A).
            for _ in range(min(16, total)):
                end.rq_index = yield from ibv_post_recv(
                    ctx, hca, end.qp,
                    Wqe(opcode=IbOpcode.RECV, wr_id=0, local_addr=0, lkey=0,
                        length=max(size, 1)), end.rq_index)

            def service_send(i):
                wqe = _ib_write_wqe(end, size, wr_id=i,
                                    opcode=IbOpcode.RDMA_WRITE_WITH_IMM,
                                    immediate=i)
                end.sq_index = yield from ibv_post_send(ctx, hca, end.qp, wqe,
                                                        end.sq_index)
                yield from ibv_wait_cq(ctx, send_consumer)
                yield from ctx.write_u64(flags + FLAG_SENT, i)

            def service_recv(i):
                yield from ibv_wait_cq(ctx, recv_consumer)
                end.rq_index = yield from ibv_post_recv(
                    ctx, hca, end.qp,
                    Wqe(opcode=IbOpcode.RECV, wr_id=0, local_addr=0, lkey=0,
                        length=max(size, 1)), end.rq_index)
                yield from ctx.write_u64(flags + FLAG_ARRIVED, i)

            for i in range(1, total + 1):
                if end.node.node_id == 0:  # ping side: send then recv
                    yield from ctx.spin_until_u64(flags + FLAG_REQUEST,
                                                  lambda v, i=i: v >= i)
                    yield from service_send(i)
                    yield from service_recv(i)
                else:                       # pong side: recv then send
                    yield from service_recv(i)
                    yield from ctx.spin_until_u64(flags + FLAG_REQUEST,
                                                  lambda v, i=i: v >= i)
                    yield from service_send(i)

        handles.append(end.node.gpu.launch(gpu_ping if is_ping else gpu_pong))
        handles.append(end.node.cpu.spawn(cpu_proxy,
                                          name=f"ib-proxy{end.node.node_id}"))
    return handles


def _ib_host_controlled(cluster, conn, size, total, warmup, timing):
    """dev2dev-hostControlled: write-with-immediate to synchronize ping and
    pong on the CPUs (§V-B1); payloads still move GPU to GPU."""

    def side(end, is_ping):
        def body(ctx):
            hca = end.node.nic
            send_consumer = end.host_send_cq_consumer()
            recv_consumer = end.host_recv_cq_consumer()
            for _ in range(min(16, total)):
                end.rq_index = yield from ibv_post_recv(
                    ctx, hca, end.qp,
                    Wqe(opcode=IbOpcode.RECV, wr_id=0, local_addr=0, lkey=0,
                        length=max(size, 1)), end.rq_index)

            def do_send(i):
                wqe = _ib_write_wqe(end, size, wr_id=i,
                                    opcode=IbOpcode.RDMA_WRITE_WITH_IMM,
                                    immediate=i)
                end.sq_index = yield from ibv_post_send(ctx, hca, end.qp, wqe,
                                                        end.sq_index)
                yield from ibv_wait_cq(ctx, send_consumer)

            def do_recv(i):
                yield from ibv_wait_cq(ctx, recv_consumer)
                end.rq_index = yield from ibv_post_recv(
                    ctx, hca, end.qp,
                    Wqe(opcode=IbOpcode.RECV, wr_id=0, local_addr=0, lkey=0,
                        length=max(size, 1)), end.rq_index)

            trc = ctx.sim.tracer
            for i in range(1, total + 1):
                if is_ping:
                    if i == warmup + 1:
                        timing.start = ctx.sim.now
                    measured = trc.enabled and i > warmup
                    span = _phase(trc, "wr-generation", measured, i)
                    t0 = ctx.sim.now
                    yield from do_send(i)
                    t1 = ctx.sim.now
                    span.end()
                    span = _phase(trc, "polling", measured, i)
                    yield from do_recv(i)
                    span.end()
                    if i > warmup:
                        timing.post_time += t1 - t0
                        timing.poll_time += ctx.sim.now - t1
                else:
                    yield from do_recv(i)
                    yield from do_send(i)
            if is_ping:
                timing.end = ctx.sim.now
        return body

    return [conn.a.node.cpu.spawn(side(conn.a, True), name="ib-ping"),
            conn.b.node.cpu.spawn(side(conn.b, False), name="ib-pong")]
