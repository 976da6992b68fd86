"""Streaming-bandwidth microbenchmarks (Figs. 1b and 4b).

Unidirectional: node A streams ``count`` messages of ``size`` bytes into
node B's GPU memory, keeping a bounded window of outstanding transfers.
Bandwidth = moved bytes / (time from first post to last confirmed arrival).

``dev2dev-pollOnGPU`` is deliberately absent: "this is only applicable for
the ping-pong test" (§V-A1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import NotifyFlags, rma_wait_notification
from ..ib import ibv_wait_cq
from ..units import MIB
from .drive import (
    FLAG_REQUEST,
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
from .pingpong import _gpu_write_marker, _marker_offset, _marker_predicate
from .results import BandwidthPoint
from .setup import ExtollConnection, IbConnection

_WINDOW = 4


def default_message_count(size: int) -> int:
    """Enough messages to amortize startup without exploding the event count."""
    return max(8, min(48, (8 * MIB) // size))


@dataclass
class _StreamTiming:
    start: float = 0.0
    end: float = 0.0


def _bandwidth(cluster, conn, mode, size: int, count: int | None, drive,
               clear_markers: bool) -> BandwidthPoint:
    """Validate, reset ``conn`` (and its receive markers, for the drivers
    that poll them), run ``drive``'s handles, return the point."""
    check_size(conn, size)
    if count is None:
        count = default_message_count(size)
    elif count < 1:
        raise BenchmarkError(f"need at least one message, got count={count}")
    timing = _StreamTiming()
    off = _marker_offset(size)
    for end in (conn.a, conn.b):
        end.reset_flags()
        if clear_markers:
            end.node.gpu.dram.write_u64(end.recv_buf.base + off, 0)
            end.node.gpu.l2.invalidate(end.recv_buf.base + off, 8)
    handles = drive(conn, size, count, timing)
    run_measured(cluster, handles, f"bandwidth:{mode.value}", size=size,
                 count=count)
    return BandwidthPoint(size=size, bytes_moved=size * count,
                          elapsed=timing.end - timing.start)


def _windowed_sender(timing, count: int, post, reap):
    """A sender that keeps at most ``_WINDOW`` messages outstanding:
    ``post(ctx, i)`` sends message ``i`` and ``reap(ctx)`` waits for the
    oldest outstanding one to complete."""

    def sender(ctx):
        timing.start = ctx.sim.now
        outstanding = 0
        for i in range(1, count + 1):
            if outstanding >= _WINDOW:
                yield from reap(ctx)
                outstanding -= 1
            yield from post(ctx, i)
            outstanding += 1
        while outstanding:
            yield from reap(ctx)
            outstanding -= 1

    return sender


def _assisted(conn, count, timing, send, receive, prefix: str):
    """dev2dev-assisted on either fabric: per message, the GPU raises a
    request that the CPU proxy serves with ``send(ctx, i)``; the remote CPU
    ``receive``s every message, then releases the remote GPU."""
    flags_a = conn.a.flag_page.base
    flags_b = conn.b.flag_page.base

    def gpu_sender(ctx):
        timing.start = ctx.sim.now
        for i in range(1, count + 1):
            yield from gpu_request(ctx, flags_a, i)

    def cpu_sender(ctx):
        for i in range(1, count + 1):
            yield from host_await_request(ctx, flags_a, i)
            yield from send(ctx, i)
            yield from ctx.write_u64(flags_a + FLAG_SENT, i)

    def cpu_receiver(ctx):
        yield from receive(ctx)
        timing.end = ctx.sim.now
        yield from ctx.write_u64(flags_b + FLAG_REQUEST, count)

    def gpu_receiver(ctx):
        return ctx.spin_until_u64(flags_b + FLAG_REQUEST, lambda v: v == count)

    return [conn.a.node.gpu.launch(gpu_sender),
            conn.a.node.cpu.spawn(cpu_sender, name=f"{prefix}bw-proxy"),
            conn.b.node.cpu.spawn(cpu_receiver, name=f"{prefix}bw-recv"),
            conn.b.node.gpu.launch(gpu_receiver)]


# =============================================================================
# EXTOLL
# =============================================================================

def run_extoll_bandwidth(cluster: Cluster, conn: ExtollConnection,
                         mode: ExtollMode, size: int,
                         count: int | None = None) -> BandwidthPoint:
    if mode is ExtollMode.DIRECT:
        drive = _extoll_stream
    elif mode is ExtollMode.ASSISTED:
        drive = _extoll_bw_assisted
    elif mode is ExtollMode.HOST_CONTROLLED:
        drive = partial(_extoll_stream, post=cpu_put,
                        wait=rma_wait_notification,
                        threads=("bw-send", "bw-recv"))
    else:
        raise BenchmarkError(f"{mode} is not a bandwidth configuration (§V-A1)")
    return _bandwidth(cluster, conn, mode, size, count, drive,
                      clear_markers=False)


def _extoll_stream(conn, size, count, timing, post=gpu_put,
                   wait=gpu_rma_wait_notification, threads=(None, None)):
    """The sender streams puts, pipelining on requester notifications, and
    the receiver consumes completer notifications to confirm arrival: on
    the GPUs (dev2dev-direct) or, given CPU ``threads`` and calls, on the
    CPUs (dev2dev-hostControlled)."""
    wr = extoll_put(conn.a, conn.b, size,
                    NotifyFlags.REQUESTER | NotifyFlags.COMPLETER)
    sender = _windowed_sender(
        timing, count, lambda ctx, i: post(ctx, conn.a, wr),
        lambda ctx: wait(ctx, conn.a.requester_cursor()))

    def receiver(ctx):
        for _ in range(count):
            yield from wait(ctx, conn.b.completer_cursor())
        timing.end = ctx.sim.now

    return [start_side(conn.a, sender, threads[0]),
            start_side(conn.b, receiver, threads[1])]


def _extoll_bw_assisted(conn, size, count, timing):
    """Per-message GPU->CPU handshake; the CPU posts; the remote CPU confirms
    arrivals and releases the remote GPU at the end."""
    wr = extoll_put(conn.a, conn.b, size,
                    NotifyFlags.REQUESTER | NotifyFlags.COMPLETER)

    def receive(ctx):
        for _ in range(count):
            yield from rma_wait_notification(ctx, conn.b.completer_cursor())

    return _assisted(conn, count, timing,
                     lambda ctx, i: host_put(ctx, conn.a, wr), receive, "")


# =============================================================================
# InfiniBand
# =============================================================================

def run_ib_bandwidth(cluster: Cluster, conn: IbConnection, mode: IbMode,
                     size: int, count: int | None = None) -> BandwidthPoint:
    if mode in (IbMode.BUF_ON_GPU, IbMode.BUF_ON_HOST):
        drive = _ib_bw_gpu
    elif mode is IbMode.ASSISTED:
        drive = _ib_bw_assisted
    elif mode is IbMode.HOST_CONTROLLED:
        drive = _ib_bw_host
    else:  # pragma: no cover
        raise BenchmarkError(f"unknown mode {mode}")
    return _bandwidth(cluster, conn, mode, size, count, drive,
                      clear_markers=True)


def _reap_receives(ctx, end, size: int, count: int, depth: int):
    """Reap ``count`` receive CQEs on the CPU, keeping ``depth`` receives
    posted ahead."""
    for _ in range(min(depth, count)):
        yield from ib_post_recv(ctx, end, size)
    for i in range(count):
        yield from ibv_wait_cq(ctx, end.host_recv_cq_consumer())
        if i + depth < count:
            yield from ib_post_recv(ctx, end, size)


def _ib_bw_gpu(conn, size, count, timing):
    """GPU streams RDMA writes, windowed on send CQEs; the remote GPU polls
    the last element of the final message (in-order RC, §V-B1)."""
    off = _marker_offset(size)

    def post(ctx, i):
        yield from _gpu_write_marker(ctx, conn.a.send_buf.base, size, i)
        yield from post_wqe(ctx, conn.a, ib_write_wqe(conn.a, size, i),
                            gpu_post_send)

    def receiver(ctx):
        yield from ctx.spin_until_u64(conn.b.recv_buf.base + off,
                                      _marker_predicate(size, count))
        timing.end = ctx.sim.now

    sender = _windowed_sender(
        timing, count, post,
        lambda ctx: gpu_wait_cq(ctx, conn.a.send_cq_consumer()))
    return [conn.a.node.gpu.launch(sender), conn.b.node.gpu.launch(receiver)]


def _ib_bw_assisted(conn, size, count, timing):
    """GPU->CPU handshake per message; CPU posts write-with-immediate; the
    remote CPU reaps receive CQEs."""
    return _assisted(
        conn, count, timing,
        lambda ctx, i: host_send(ctx, conn.a,
                                 ib_write_wqe(conn.a, size, i, immediate=i)),
        lambda ctx: _reap_receives(ctx, conn.b, size, count, depth=16), "ib-")


def _ib_bw_host(conn, size, count, timing):
    """CPU streams write-with-immediate, windowed on send CQEs; the remote
    CPU counts receive CQEs."""

    def receiver(ctx):
        yield from _reap_receives(ctx, conn.b, size, count, depth=32)
        timing.end = ctx.sim.now

    sender = _windowed_sender(
        timing, count,
        lambda ctx, i: post_wqe(ctx, conn.a,
                                ib_write_wqe(conn.a, size, i, immediate=i)),
        lambda ctx: ibv_wait_cq(ctx, conn.a.host_send_cq_consumer()))
    return [conn.a.node.cpu.spawn(sender, name="ib-bw-send"),
            conn.b.node.cpu.spawn(receiver, name="ib-bw-recv")]
