"""Sustained message-rate microbenchmarks (Figs. 2 and 5).

64-byte messages over 1..32 connection pairs.  "For every port that is
opened a new requester page on the PCIe BAR is allocated avoiding race
conditions when multiple descriptors are posted in parallel" (§V-A2) — each
block, kernel, or host loop owns a private connection.

Methods:

* ``dev2dev-blocks``  — one kernel, one CUDA block per connection,
* ``dev2dev-kernels`` — one single-block kernel per stream per connection,
* ``dev2dev-assisted`` — blocks raise flags; ONE CPU proxy thread serves all
  connections round-robin ("If one block or kernel has a communication
  request, the thread is blocked for all other aspirants"),
* ``dev2dev-hostControlled`` — one CPU thread drives all connections,
  pipelining posts and reaping notifications/CQEs.

Each method is one skeleton for both fabrics; a fabric supplies only its
post, reap and probe steps (:class:`_ExtollSteps`, :class:`_IbSteps`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..cluster import Cluster
from ..errors import BenchmarkError
from ..extoll import NotifyFlags, rma_try_notification
from ..ib import ibv_poll_cq
from .drive import (
    FLAG_REQUEST,
    FLAG_SENT,
    cpu_put,
    extoll_put,
    gpu_put,
    gpu_request,
    host_put,
    host_send,
    ib_write_wqe,
    post_wqe,
    run_measured,
)
from .gpu_rma import gpu_rma_wait_notification
from .gpu_verbs import gpu_post_send, gpu_wait_cq
from .modes import RateMethod
from .results import RatePoint
from .setup import ExtollConnection, IbConnection

MESSAGE_BYTES = 64


@dataclass
class _RateTiming:
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)

    @property
    def elapsed(self) -> float:
        return max(self.ends) - min(self.starts)

    def point(self, connections: int, per_connection: int) -> RatePoint:
        return RatePoint(connections=connections,
                         messages=connections * per_connection,
                         elapsed=self.elapsed)


def _check(connections, per_connection):
    if not connections:
        raise BenchmarkError("need at least one connection")
    if per_connection < 1:
        raise BenchmarkError("need at least one message per connection")


class _ExtollSteps:
    """Fig. 2: 64 B puts, each requesting a requester notification."""

    prefix = ""
    host_window = 2

    @staticmethod
    def put(conn: ExtollConnection):
        return extoll_put(conn.a, conn.b, MESSAGE_BYTES, NotifyFlags.REQUESTER)

    @classmethod
    def gpu_post(cls, ctx, conn, i):
        return gpu_put(ctx, conn.a, cls.put(conn))

    @staticmethod
    def gpu_reap(ctx, conn):
        return gpu_rma_wait_notification(ctx, conn.a.requester_cursor())

    @classmethod
    def host_serve(cls, ctx, conn, i):
        return host_put(ctx, conn.a, cls.put(conn))

    @classmethod
    def host_post(cls, ctx, conn, i):
        return cpu_put(ctx, conn.a, cls.put(conn))

    @staticmethod
    def host_probe(ctx, conn):
        return rma_try_notification(ctx, conn.a.requester_cursor())

    @staticmethod
    def engine_handles(*args):
        from ..engine import engine_extoll_rate_handles
        return engine_extoll_rate_handles(*args)


class _IbSteps:
    """Fig. 5: 64 B RDMA writes, each reaped from the send CQ."""

    prefix = "ib-"
    host_window = 4

    @staticmethod
    def gpu_post(ctx, conn, i):
        return post_wqe(ctx, conn.a, ib_write_wqe(conn.a, MESSAGE_BYTES, i),
                        gpu_post_send)

    @staticmethod
    def gpu_reap(ctx, conn):
        return gpu_wait_cq(ctx, conn.a.send_cq_consumer())

    @staticmethod
    def host_serve(ctx, conn, i):
        return host_send(ctx, conn.a, ib_write_wqe(conn.a, MESSAGE_BYTES, i))

    @staticmethod
    def host_post(ctx, conn, i):
        return post_wqe(ctx, conn.a, ib_write_wqe(conn.a, MESSAGE_BYTES, i))

    @staticmethod
    def host_probe(ctx, conn):
        return ibv_poll_cq(ctx, conn.a.host_send_cq_consumer())

    @staticmethod
    def engine_handles(*args):
        from ..engine import engine_ib_rate_handles
        return engine_ib_rate_handles(*args)


def run_extoll_message_rate(cluster: Cluster,
                            connections: List[ExtollConnection],
                            method: RateMethod,
                            per_connection: int = 120) -> RatePoint:
    return _message_rate(cluster, connections, method, per_connection,
                         _ExtollSteps)


def run_ib_message_rate(cluster: Cluster, connections: List[IbConnection],
                        method: RateMethod,
                        per_connection: int = 120) -> RatePoint:
    return _message_rate(cluster, connections, method, per_connection,
                         _IbSteps)


def _message_rate(cluster, connections, method, per_connection,
                  steps) -> RatePoint:
    _check(connections, per_connection)
    timing = _RateTiming()
    for conn in connections:
        conn.a.reset_flags()
        conn.b.reset_flags()

    if method in (RateMethod.BLOCKS, RateMethod.KERNELS):
        handles = _blocks(connections, per_connection, timing,
                          method is RateMethod.KERNELS, steps)
    elif method is RateMethod.ASSISTED:
        handles = _assisted(connections, per_connection, timing, steps)
    elif method is RateMethod.HOST_CONTROLLED:
        handles = _host(connections, per_connection, timing, steps)
    elif method in (RateMethod.ENGINE, RateMethod.ENGINE_BATCHED):
        # The offload-engine methods: one persistent proxy block multiplexes
        # every connection (imports deferred — repro.engine builds on this
        # module).
        from ..engine import EngineConfig

        config = (EngineConfig.all_on() if method is RateMethod.ENGINE_BATCHED
                  else EngineConfig.warp_only())
        handles = steps.engine_handles(cluster, connections, per_connection,
                                       timing, config)
    else:  # pragma: no cover
        raise BenchmarkError(f"unknown method {method}")

    run_measured(cluster, handles, f"message-rate:{method.value}",
                 connections=len(connections), per_connection=per_connection)
    return timing.point(len(connections), per_connection)


def _blocks(connections, per_connection, timing, kernels: bool, steps):
    """One CUDA block per connection, posting a message and reaping its
    completion in turn."""
    gpu = connections[0].a.node.gpu

    def body(ctx, conn):
        timing.starts.append(ctx.sim.now)
        for i in range(1, per_connection + 1):
            yield from steps.gpu_post(ctx, conn, i)
            yield from steps.gpu_reap(ctx, conn)
        timing.ends.append(ctx.sim.now)

    if kernels:
        # One single-block kernel per stream (§V-A2).
        return [gpu.launch(body, grid=1, block=1, args=(conn,),
                           stream=gpu.stream())
                for conn in connections]

    # One kernel, one block per connection: block_idx selects the connection.
    def dispatch(ctx):
        return body(ctx, connections[ctx.block_idx])

    return [gpu.launch(dispatch, grid=len(connections), block=1)]


def _assisted(connections, per_connection, timing, steps):
    """One CPU proxy serves every block's requests round-robin."""
    gpu = connections[0].a.node.gpu
    cpu = connections[0].a.node.cpu

    def gpu_block(ctx):
        flags = connections[ctx.block_idx].a.flag_page.base
        timing.starts.append(ctx.sim.now)
        for i in range(1, per_connection + 1):
            yield from gpu_request(ctx, flags, i)
        timing.ends.append(ctx.sim.now)

    def proxy(ctx):
        served = [0] * len(connections)
        while any(s < per_connection for s in served):
            progressed = False
            for j, conn in enumerate(connections):
                if served[j] >= per_connection:
                    continue
                flags = conn.a.flag_page.base
                req = yield from ctx.read_u64(flags + FLAG_REQUEST)
                if req > served[j]:
                    # Serve this block, blocking all other aspirants (§V-B2).
                    served[j] += 1
                    yield from steps.host_serve(ctx, conn, served[j])
                    yield from ctx.write_u64(flags + FLAG_SENT, served[j])
                    progressed = True
            if not progressed:
                yield from ctx.sleep(0.5e-6)

    return [gpu.launch(gpu_block, grid=len(connections), block=1),
            cpu.spawn(proxy, name=f"{steps.prefix}rate-proxy")]


def _host(connections, per_connection, timing, steps):
    """One CPU thread pipelines posts across every connection, probing for
    completions to bound each one's outstanding messages."""
    cpu = connections[0].a.node.cpu
    window = steps.host_window

    def body(ctx):
        posted = [0] * len(connections)
        reaped = [0] * len(connections)
        timing.starts.append(ctx.sim.now)
        while any(r < per_connection for r in reaped):
            for j, conn in enumerate(connections):
                if posted[j] < per_connection and posted[j] - reaped[j] < window:
                    posted[j] += 1
                    yield from steps.host_post(ctx, conn, posted[j])
                if reaped[j] < posted[j]:
                    hit = yield from steps.host_probe(ctx, conn)
                    if hit is not None:
                        reaped[j] += 1
        timing.ends.append(ctx.sim.now)

    return [cpu.spawn(body, name=f"{steps.prefix}rate-host")]
