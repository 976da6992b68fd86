"""Ping-pong latency microbenchmarks (Figs. 1a and 4a, Fig. 3 phase split).

One iteration: the ping node sends ``size`` bytes to the pong node; the pong
node detects arrival and sends ``size`` bytes back; the ping node detects the
reply.  Reported latency is the half round trip, averaged over the measured
iterations (after warmup).  GPU payload buffers on both sides — every
configuration is *dev2dev*; only the control path differs.

Every mode's ping side is one skeleton, :func:`ping_rounds`: it owns the
warm-up boundary, the ``wr-generation``/``polling`` phase spans and the
post/poll accumulators, and a mode supplies only the post step and the
poll step of a round (plus its pong side).  :func:`notified_pingpong` is
dev2dev-direct with the posting step as a parameter, which the offload
engine and the §VI interface reuse with theirs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import NotifyFlags, rma_wait_notification
from ..ib import ibv_wait_cq
from ..sim import NULL_SPAN
from .drive import (
    FLAG_ARRIVED,
    FLAG_SENT,
    check_size,
    cpu_put,
    extoll_put,
    gpu_put,
    gpu_request,
    host_await_request,
    host_put,
    host_send,
    ib_post_recv,
    ib_write_wqe,
    post_wqe,
    run_measured,
    start_side,
)
from .gpu_rma import gpu_rma_wait_notification
from .gpu_verbs import gpu_post_send, gpu_wait_cq
from .modes import ExtollMode, IbMode
from .results import LatencyPoint
from .setup import ExtollConnection, IbConnection, IbEnd


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


def _validate(conn, size: int, iterations: int, warmup: int) -> None:
    check_size(conn, size)
    if iterations < 1 or warmup < 0:
        raise BenchmarkError("need iterations >= 1 and warmup >= 0")


@dataclass
class _PingTiming:
    start: float = 0.0
    end: float = 0.0
    post_time: float = 0.0
    poll_time: float = 0.0

    def point(self, size: int, iterations: int) -> LatencyPoint:
        """The half-round-trip latency and per-round phase split."""
        elapsed = self.end - self.start
        return LatencyPoint(size=size, latency=elapsed / (2 * iterations),
                            post_time=self.post_time / iterations,
                            poll_time=self.poll_time / iterations)


def _phase(trc, name: str, measured: bool, i: int):
    """A driver-level phase span on the ``ping`` track, opened only for
    measured iterations so its summed duration reconciles exactly with the
    ``LatencyPoint`` post/poll accumulators (the ``trace`` CLI checks this)."""
    if not measured:
        return NULL_SPAN
    return trc.begin("phase", name, track="ping", iter=i)


def ping_rounds(ctx, timing: _PingTiming, total: int, warmup: int, post, poll):
    """The ping side of every ping-pong: ``total`` rounds of
    ``post(ctx, i)`` (WR generation) then ``poll(ctx, i)`` (until the reply
    is seen).  The rounds after ``warmup`` are timed into ``timing`` and,
    when tracing, get one phase span per step."""
    trc = ctx.sim.tracer
    for i in range(1, total + 1):
        if i == warmup + 1:
            timing.start = ctx.sim.now
        measured = trc.enabled and i > warmup
        span = _phase(trc, "wr-generation", measured, i)
        t0 = ctx.sim.now
        yield from post(ctx, i)
        t1 = ctx.sim.now
        span.end()
        span = _phase(trc, "polling", measured, i)
        yield from poll(ctx, i)
        span.end()
        if i > warmup:
            timing.post_time += t1 - t0
            timing.poll_time += ctx.sim.now - t1
    timing.end = ctx.sim.now


def _pingpong(cluster, conn, mode, size: int, iterations: int, warmup: int,
              drive) -> LatencyPoint:
    """Validate, reset ``conn``, run ``drive``'s handles, return the point."""
    _validate(conn, size, iterations, warmup)
    # Make the connection reusable across measurements: clear flag pages and
    # stale markers (functional setup, outside the timed region).
    off = _marker_offset(size)
    for end in (conn.a, conn.b):
        end.reset_flags()
        end.node.gpu.dram.write_u64(end.recv_buf.base + off, 0)
        end.node.gpu.l2.invalidate(end.recv_buf.base + off, 8)
    timing = _PingTiming()
    handles = drive(conn, size, iterations + warmup, warmup, timing)
    run_measured(cluster, handles, f"pingpong:{mode.value}", size=size,
                 iterations=iterations, warmup=warmup)
    return timing.point(size, iterations)


def _assisted_gpu(end, is_ping: bool, total: int, warmup: int,
                  timing: _PingTiming):
    """The GPU side of dev2dev-assisted on either fabric: a send is a request
    the node's CPU proxy answers with ``FLAG_SENT``, an arrival the proxy's
    ``FLAG_ARRIVED``."""
    flags = end.flag_page.base

    def arrival(ctx, i):
        return ctx.spin_until_u64(flags + FLAG_ARRIVED, lambda v: v == i)

    def gpu_ping(ctx):
        return ping_rounds(ctx, timing, total, warmup,
                           lambda ctx, i: gpu_request(ctx, flags, i), arrival)

    def gpu_pong(ctx):
        for i in range(1, total + 1):
            yield from arrival(ctx, i)
            yield from gpu_request(ctx, flags, i)

    return end.node.gpu.launch(gpu_ping if is_ping else gpu_pong)


# =============================================================================
# EXTOLL
# =============================================================================

def run_extoll_pingpong(cluster: Cluster, conn: ExtollConnection,
                        mode: ExtollMode, size: int, iterations: int = 30,
                        warmup: int = 3) -> LatencyPoint:
    """Run one ping-pong measurement; returns the half-round-trip latency
    with the Fig. 3 post/poll phase split (ping side)."""
    if mode is ExtollMode.DIRECT:
        drive = partial(notified_pingpong, post=gpu_put)
    elif mode is ExtollMode.POLL_ON_GPU:
        drive = _extoll_poll_on_gpu
    elif mode is ExtollMode.ASSISTED:
        drive = _extoll_assisted
    elif mode is ExtollMode.HOST_CONTROLLED:
        drive = partial(notified_pingpong, post=cpu_put,
                        wait=rma_wait_notification, threads=("ping", "pong"))
    else:  # pragma: no cover
        raise BenchmarkError(f"unknown mode {mode}")
    return _pingpong(cluster, conn, mode, size, iterations, warmup, drive)


def notified_pingpong(conn, size, total, warmup, timing, post,
                      wait=gpu_rma_wait_notification, threads=(None, None)):
    """Each side puts with ``post(ctx, end, wr)`` and ``wait``s for the
    put's requester notification and the peer's completer notification.
    On the GPUs this is dev2dev-direct, which the offload engine and the
    §VI interface run with their own ``post``; on the CPUs (``threads``
    names the ping and pong threads) it is dev2dev-hostControlled."""
    flags = NotifyFlags.REQUESTER | NotifyFlags.COMPLETER
    a, b = conn.a, conn.b
    wr_ping = extoll_put(a, b, size, flags)
    wr_pong = extoll_put(b, a, size, flags)

    def poll(ctx, i):
        yield from wait(ctx, a.requester_cursor())
        yield from wait(ctx, a.completer_cursor())

    def ping(ctx):
        return ping_rounds(ctx, timing, total, warmup,
                           lambda ctx, i: post(ctx, a, wr_ping), poll)

    def pong(ctx):
        for _ in range(total):
            yield from wait(ctx, b.completer_cursor())
            yield from post(ctx, b, wr_pong)
            yield from wait(ctx, b.requester_cursor())

    return [start_side(a, ping, threads[0]), start_side(b, pong, threads[1])]


def _extoll_poll_on_gpu(conn, size, total, warmup, timing):
    """GPU posts; completion detected by polling the last received element
    in device memory (dev2dev-pollOnGPU).  No notifications are created."""
    wr_ping = extoll_put(conn.a, conn.b, size, NotifyFlags.NONE)
    wr_pong = extoll_put(conn.b, conn.a, size, NotifyFlags.NONE)
    off = _marker_offset(size)

    def post(ctx, i):
        yield from _gpu_write_marker(ctx, conn.a.send_buf.base, size, i)
        yield from gpu_put(ctx, conn.a, wr_ping)

    def poll(ctx, i):
        return ctx.spin_until_u64(conn.a.recv_buf.base + off,
                                  _marker_predicate(size, i))

    def ping(ctx):
        return ping_rounds(ctx, timing, total, warmup, post, poll)

    def pong(ctx):
        for i in range(1, total + 1):
            yield from ctx.spin_until_u64(conn.b.recv_buf.base + off,
                                          _marker_predicate(size, i))
            yield from _gpu_write_marker(ctx, conn.b.send_buf.base, size, i)
            yield from gpu_put(ctx, conn.b, wr_pong)

    return [conn.a.node.gpu.launch(ping), conn.b.node.gpu.launch(pong)]


def _extoll_assisted(conn, size, total, warmup, timing):
    """GPU kernels synchronize with per-node CPU proxies through flags in
    host memory (dev2dev-assisted)."""
    handles = []
    for end in (conn.a, conn.b):
        flags = end.flag_page.base
        wr = extoll_put(end, conn.peer_of(end), size,
                        NotifyFlags.REQUESTER | NotifyFlags.COMPLETER)

        def cpu_send_proxy(ctx, end=end, wr=wr, flags=flags):
            for i in range(1, total + 1):
                yield from host_await_request(ctx, flags, i)
                yield from host_put(ctx, end, wr)
                yield from ctx.write_u64(flags + FLAG_SENT, i)

        def cpu_recv_proxy(ctx, end=end, flags=flags):
            for i in range(1, total + 1):
                yield from rma_wait_notification(ctx, end.completer_cursor())
                yield from ctx.write_u64(flags + FLAG_ARRIVED, i)

        handles.append(_assisted_gpu(end, end is conn.a, total, warmup, timing))
        handles.append(end.node.cpu.spawn(cpu_send_proxy, name=f"proxy-send{end.node.node_id}"))
        handles.append(end.node.cpu.spawn(cpu_recv_proxy, name=f"proxy-recv{end.node.node_id}"))
    return handles


# =============================================================================
# InfiniBand
# =============================================================================

def run_ib_pingpong(cluster: Cluster, conn: IbConnection, mode: IbMode,
                    size: int, iterations: int = 30, warmup: int = 3,
                    post_send=gpu_post_send) -> LatencyPoint:
    """Like :func:`run_extoll_pingpong`.  ``post_send`` is the GPU's post
    step in bufOnGPU and bufOnHost (the endianness ablation passes the
    unoptimized flavour)."""
    if mode in (IbMode.BUF_ON_GPU, IbMode.BUF_ON_HOST):
        drive = partial(_ib_gpu_controlled, post_send=post_send)
    elif mode is IbMode.ASSISTED:
        drive = _ib_assisted
    elif mode is IbMode.HOST_CONTROLLED:
        drive = _ib_host_controlled
    else:  # pragma: no cover
        raise BenchmarkError(f"unknown mode {mode}")
    return _pingpong(cluster, conn, mode, size, iterations, warmup, drive)


def _ib_gpu_controlled(conn, size, total, warmup, timing, post_send):
    """dev2dev-bufOnGPU / bufOnHost: GPU posts RDMA writes and polls the last
    received element; the buffer location is baked into the connection."""
    off = _marker_offset(size)

    def post(ctx, i):
        yield from _gpu_write_marker(ctx, conn.a.send_buf.base, size, i)
        yield from post_wqe(ctx, conn.a, ib_write_wqe(conn.a, size, i),
                            post_send)

    def poll(ctx, i):
        yield from gpu_wait_cq(ctx, conn.a.send_cq_consumer())
        yield from ctx.spin_until_u64(conn.a.recv_buf.base + off,
                                      _marker_predicate(size, i))

    def ping(ctx):
        return ping_rounds(ctx, timing, total, warmup, post, poll)

    def pong(ctx):
        for i in range(1, total + 1):
            yield from ctx.spin_until_u64(conn.b.recv_buf.base + off,
                                          _marker_predicate(size, i))
            yield from _gpu_write_marker(ctx, conn.b.send_buf.base, size, i)
            yield from post_wqe(ctx, conn.b, ib_write_wqe(conn.b, size, i),
                                post_send)
            yield from gpu_wait_cq(ctx, conn.b.send_cq_consumer())

    return [conn.a.node.gpu.launch(ping), conn.b.node.gpu.launch(pong)]


@dataclass
class _HostVerbs:
    """The CPU's verbs on one IB end in the modes that synchronize with
    write-with-immediate (§V-B1): a batch of pre-posted receives, a send
    that reaps its send CQE, and a receive that reaps the receive CQE and
    re-posts."""

    end: IbEnd
    size: int

    def prepost(self, ctx, total: int):
        for _ in range(min(16, total)):
            yield from ib_post_recv(ctx, self.end, self.size)

    def send(self, ctx, i: int):
        return host_send(ctx, self.end,
                         ib_write_wqe(self.end, self.size, i, immediate=i))

    def receive(self, ctx, i: int):
        yield from ibv_wait_cq(ctx, self.end.host_recv_cq_consumer())
        yield from ib_post_recv(ctx, self.end, self.size)


def _ib_assisted(conn, size, total, warmup, timing):
    """dev2dev-assisted: the GPU triggers a CPU proxy by writing a flag; the
    CPU runs the verbs (write-with-immediate so the host sees arrivals)."""
    handles = []
    for end in (conn.a, conn.b):

        def cpu_proxy(ctx, end=end, is_ping=end is conn.a):
            flags = end.flag_page.base
            verbs = _HostVerbs(end, size)

            def service_send(i):
                yield from host_await_request(ctx, flags, i)
                yield from verbs.send(ctx, i)
                yield from ctx.write_u64(flags + FLAG_SENT, i)

            def service_recv(i):
                yield from verbs.receive(ctx, i)
                yield from ctx.write_u64(flags + FLAG_ARRIVED, i)

            yield from verbs.prepost(ctx, total)
            for i in range(1, total + 1):
                if is_ping:  # send then recv
                    yield from service_send(i)
                    yield from service_recv(i)
                else:        # recv then send
                    yield from service_recv(i)
                    yield from service_send(i)

        handles.append(_assisted_gpu(end, end is conn.a, total, warmup, timing))
        handles.append(end.node.cpu.spawn(cpu_proxy,
                                          name=f"ib-proxy{end.node.node_id}"))
    return handles


def _ib_host_controlled(conn, size, total, warmup, timing):
    """dev2dev-hostControlled: write-with-immediate to synchronize ping and
    pong on the CPUs (§V-B1); payloads still move GPU to GPU."""
    ping_verbs = _HostVerbs(conn.a, size)
    pong_verbs = _HostVerbs(conn.b, size)

    def ping(ctx):
        yield from ping_verbs.prepost(ctx, total)
        yield from ping_rounds(ctx, timing, total, warmup, ping_verbs.send,
                               ping_verbs.receive)

    def pong(ctx):
        yield from pong_verbs.prepost(ctx, total)
        for i in range(1, total + 1):
            yield from pong_verbs.receive(ctx, i)
            yield from pong_verbs.send(ctx, i)

    return [conn.a.node.cpu.spawn(ping, name="ib-ping"),
            conn.b.node.cpu.spawn(pong, name="ib-pong")]
