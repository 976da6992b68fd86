"""The GPU communication offload engine: configuration and drivers.

One persistent proxy block owns M connections and drives them through the
engine's three optimizations (warp-parallel generation, doorbell
coalescing + aggregation, scheduled multiplexing with adaptive backoff) —
the structure later work converged on for GPU-initiated communication
(fully offloaded stream-aware message passing, arXiv:2306.15773; deferred/
triggered operation scheduling, arXiv:2406.05594), built here on the
paper's put/get substrate so every saving is attributable in the same
cost model the baselines use.

Drivers:

* :func:`run_engine_pingpong` — dev2dev-direct semantics through the
  engine posting path (the latency cost/benefit of each optimization).
* :func:`run_engine_message_rate` — the Fig. 2 experiment with the
  one-block-per-connection structure replaced by the engine proxy.
* :func:`run_engine_ib_message_rate` — the Fig. 5 analogue: batched WQEs,
  one doorbell per batch (the HCA's cumulative producer index makes
  doorbell coalescing native).
* :func:`run_engine_channel_traffic` — the proxy multiplexing msglib
  channels, for the faults/reliability interaction tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..cluster import Cluster
from ..errors import BenchmarkError, ConfigError
from ..extoll import NotifyFlags, RmaWorkRequest
from ..core.drive import extoll_put, gpu_put, ib_write_wqe, run_measured
from ..core.gpu_rma import gpu_rma_try_notification
from ..core.gpu_verbs import gpu_poll_cq
from ..core.message_rate import MESSAGE_BYTES, _check, _RateTiming
from ..core.msglib import Channel, gpu_recv, gpu_send
from ..core.pingpong import _PingTiming, _validate, notified_pingpong
from ..core.results import LatencyPoint, RatePoint
from ..core.setup import ExtollConnection, IbConnection
from .batch import Aggregator, DoorbellBatcher, FlushPolicy
from .scheduler import AdaptiveBackoff, Scheduler
from .wqe_gen import (
    DEFAULT_LANES,
    engine_post_batch,
    engine_post_send_batch,
    engine_rma_post,
)


@dataclass(frozen=True)
class EngineConfig:
    """Which of the engine's optimizations are armed, and their knobs."""

    wqe_lanes: int = DEFAULT_LANES   # 1 = scalar single-thread generation
    batch_size: int = 8              # 1 = one doorbell per descriptor
    aggregate_bytes: int = 256       # 0 = no small-message aggregation
    flush_timeout: float = 2e-6      # batch latency bound (simulated s)
    policy: str = "round-robin"      # or "priority"
    priorities: Optional[Tuple[int, ...]] = None
    window: int = 16                 # per-connection outstanding WRs
    spin_passes: int = 4             # idle passes before backoff engages
    backoff_base: float = 0.5e-6
    backoff_max: float = 50e-6

    def __post_init__(self) -> None:
        if self.wqe_lanes < 1 or self.wqe_lanes > 32:
            raise ConfigError(f"wqe_lanes must be 1..32, got {self.wqe_lanes}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.aggregate_bytes < 0:
            raise ConfigError("aggregate_bytes must be >= 0")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.flush_timeout <= 0:
            raise ConfigError("flush_timeout must be > 0")

    # -- which optimizations are on ---------------------------------------------
    @property
    def warp_parallel(self) -> bool:
        return self.wqe_lanes > 1

    @property
    def batching(self) -> bool:
        return self.batch_size > 1

    @property
    def aggregating(self) -> bool:
        return self.aggregate_bytes > MESSAGE_BYTES

    @property
    def effective_window(self) -> int:
        """Outstanding-WR bound; a batch must fit inside the window."""
        return max(self.window, self.batch_size)

    # -- the sweep's canonical variants -----------------------------------------
    @classmethod
    def baseline(cls) -> "EngineConfig":
        """The scalar path through the engine scheduler: no warp assembly,
        no coalescing, no aggregation — isolates the proxy structure."""
        return cls(wqe_lanes=1, batch_size=1, aggregate_bytes=0)

    @classmethod
    def warp_only(cls) -> "EngineConfig":
        return cls(batch_size=1, aggregate_bytes=0)

    @classmethod
    def batch_only(cls) -> "EngineConfig":
        return cls(wqe_lanes=1)

    @classmethod
    def all_on(cls) -> "EngineConfig":
        return cls()

    def describe(self) -> str:
        return (f"lanes={self.wqe_lanes} batch={self.batch_size} "
                f"agg={self.aggregate_bytes}B window={self.effective_window} "
                f"policy={self.policy}")


#: Engine pingpong variants exposed as CLI mode names (obs/perf CLIs).
PINGPONG_CONFIGS: Dict[str, EngineConfig] = {
    "dev2dev-engine": EngineConfig.warp_only(),
    "dev2dev-engineBatched": EngineConfig.all_on(),
}


@dataclass
class EngineStats:
    """Driver-side accounting of one engine run — reconciled against the
    NIC's hardware counters and the span trace by the invariant checks.

    Every field except ``inflight`` is a monotonic counter; ``inflight`` is
    a gauge (descriptors posted but not yet reaped) maintained live by the
    proxy loops so the telemetry sampler can read proxy occupancy mid-run.
    Implements the uniform ``snapshot()``/``diff()`` protocol the sampler
    polls (:mod:`repro.telemetry.sampler`).
    """

    messages: int = 0
    wrs: int = 0                 # descriptors/WQEs handed to the NIC
    doorbells: int = 0           # doorbell/trigger MMIO stores issued
    batches: int = 0             # batched doorbells among them
    timeout_flushes: int = 0
    passes: int = 0              # scheduler service passes
    backoff_yields: int = 0
    polls: int = 0               # completion probes
    poll_hits: int = 0
    inflight: int = 0            # GAUGE: posted minus reaped descriptors

    #: Fields that are instantaneous levels, not monotonic totals.
    GAUGES = ("inflight",)

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def snapshot(self) -> Dict[str, int]:
        """Point-in-time copy of every counter and gauge (plain dict)."""
        return self.as_dict()

    def diff(self, earlier: Dict[str, int]) -> Dict[str, int]:
        """Counters accumulated since ``earlier`` (a prior
        :meth:`snapshot`); gauges report their *current* level, not a
        delta.  Fields unseen by ``earlier`` diff against zero."""
        out = {}
        for name, value in self.as_dict().items():
            if name in self.GAUGES:
                out[name] = value
            else:
                out[name] = value - earlier.get(name, 0)
        return out


def aggregate_schedule(per_connection: int, message_bytes: int,
                       max_bytes: int) -> List[int]:
    """Per-lane put sizes after aggregation: ``per_connection`` messages of
    ``message_bytes`` merged into runs of at most ``max_bytes``."""
    if max_bytes <= message_bytes:
        return [message_bytes] * per_connection
    agg = Aggregator(max_bytes)
    sizes: List[int] = []
    for _ in range(per_connection):
        done = agg.add(0, message_bytes)
        if done is not None:
            sizes.append(done.bytes)
    sizes.extend(a.bytes for a in agg.drain(0))
    return sizes


# =============================================================================
# Latency: engine ping-pong (dev2dev-direct semantics)
# =============================================================================

def _engine_post(ctx, end, wr: RmaWorkRequest, config: EngineConfig):
    """Post one descriptor through whichever engine path is armed."""
    ncfg = end.node.nic.config
    if config.batching:
        yield from engine_post_batch(ctx, end.port.page_addr,
                                     ncfg.batch_region_offset,
                                     ncfg.batch_doorbell_offset, [wr],
                                     config.wqe_lanes)
    elif config.warp_parallel:
        yield from engine_rma_post(ctx, end.port.page_addr, wr,
                                   config.wqe_lanes)
    else:
        yield from gpu_put(ctx, end, wr)


def run_engine_pingpong(cluster: Cluster, conn: ExtollConnection, size: int,
                        iterations: int = 30, warmup: int = 3,
                        config: Optional[EngineConfig] = None) -> LatencyPoint:
    """dev2dev-direct ping-pong with the engine posting path on both sides:
    explicit requester+completer notifications, identical semantics to the
    baseline — only WR generation and doorbell mechanics differ."""
    config = config or EngineConfig.all_on()
    _validate(conn, size, iterations, warmup)
    timing = _PingTiming()
    for end in (conn.a, conn.b):
        end.reset_flags()
    handles = notified_pingpong(conn, size, iterations + warmup, warmup,
                                timing, partial(_engine_post, config=config))
    run_measured(cluster, handles, "pingpong:engine", size=size,
                 iterations=iterations, warmup=warmup,
                 engine=config.describe())
    return timing.point(size, iterations)


# =============================================================================
# Message rate: the EXTOLL engine proxy (Fig. 2 structure replaced)
# =============================================================================

def engine_extoll_rate_handles(cluster: Cluster,
                               connections: Sequence[ExtollConnection],
                               per_connection: int, timing: _RateTiming,
                               config: EngineConfig,
                               stats: Optional[EngineStats] = None) -> list:
    """Build the engine proxy process for the EXTOLL message-rate
    benchmark: ONE persistent block multiplexing every connection."""
    stats = stats if stats is not None else EngineStats()
    gpu = connections[0].a.node.gpu
    lanes_n = len(connections)
    schedule = aggregate_schedule(
        per_connection, MESSAGE_BYTES,
        config.aggregate_bytes if config.aggregating else 0)
    target_wrs = len(schedule)

    def proxy(ctx):
        sched = Scheduler(lanes_n, config.policy, config.priorities)
        backoff = AdaptiveBackoff(config.spin_passes, config.backoff_base,
                                  config.backoff_max)
        # The batcher queues put *sizes*; descriptors are built at flush
        # time so only the batch's LAST put requests a requester
        # notification — EXTOLL executes one port's descriptors in order,
        # so its notification confirms the whole batch (the selective-
        # signaling the scalar one-doorbell-per-WR API cannot express).
        batcher = DoorbellBatcher(FlushPolicy(
            max_descriptors=config.batch_size,
            timeout=config.flush_timeout if config.batching else None))
        cursors = [c.a.requester_cursor() for c in connections]
        next_wr = [0] * lanes_n
        posted = [0] * lanes_n
        reaped = [0] * lanes_n
        inflight: List[Deque[int]] = [deque() for _ in range(lanes_n)]
        window = config.effective_window

        def post_flush(j: int, sizes):
            conn = connections[j]
            ncfg = conn.a.node.nic.config
            last = len(sizes) - 1
            wrs = [extoll_put(conn.a, conn.b, nbytes,
                              NotifyFlags.REQUESTER
                              if i == last or not config.batching
                              else NotifyFlags.NONE)
                   for i, nbytes in enumerate(sizes)]
            if config.batching:
                yield from engine_post_batch(
                    ctx, conn.a.port.page_addr, ncfg.batch_region_offset,
                    ncfg.batch_doorbell_offset, wrs, config.wqe_lanes)
                stats.batches += 1
                stats.doorbells += 1
                inflight[j].append(len(wrs))
            else:
                for wr in wrs:
                    yield from _engine_post(ctx, conn.a, wr, config)
                    stats.doorbells += 1
                    inflight[j].append(1)
            stats.wrs += len(wrs)
            stats.inflight += len(wrs)
            # Live message accounting (each aggregate carries size/64B
            # messages) so rate samplers see progress, not an upfront total.
            stats.messages += sum(nbytes // MESSAGE_BYTES for nbytes in sizes)
            posted[j] += len(wrs)

        def lane_done(j: int) -> bool:
            return (next_wr[j] >= target_wrs and batcher.pending(j) == 0
                    and reaped[j] >= target_wrs)

        timing.starts.append(ctx.sim.now)
        while not all(lane_done(j) for j in range(lanes_n)):
            progressed = False
            stats.passes += 1
            for flush in batcher.poll_timeouts(ctx.sim.now):
                yield from post_flush(flush.conn_id, flush.items)
                progressed = True
            for j in sched.service_order():
                conn = connections[j]
                # Submission side: feed the batcher while the window has
                # room; stop after one posted flush per visit (fairness).
                while (next_wr[j] < target_wrs
                       and posted[j] - reaped[j] + batcher.pending(j) < window):
                    nbytes = schedule[next_wr[j]]
                    next_wr[j] += 1
                    flush = batcher.submit(j, nbytes, nbytes, ctx.sim.now)
                    flushes = [flush] if flush is not None else []
                    if next_wr[j] >= target_wrs and batcher.pending(j):
                        # Lane exhausted: drain the tail now, no later
                        # traffic will trip the count trigger.
                        flushes.extend(batcher.drain(j))
                    for f in flushes:
                        yield from post_flush(f.conn_id, f.items)
                    if flushes:
                        progressed = True
                        break
                # Completion side: one non-blocking probe per visit; a hit
                # retires the oldest outstanding flush (its signaled tail).
                if reaped[j] < posted[j]:
                    stats.polls += 1
                    note = yield from gpu_rma_try_notification(ctx, cursors[j])
                    if note is not None:
                        done = inflight[j].popleft()
                        reaped[j] += done
                        stats.inflight -= done
                        stats.poll_hits += 1
                        progressed = True
            if progressed:
                backoff.reset()
            else:
                delay = backoff.idle()
                if delay > 0:
                    yield ctx.sim.timeout(delay)
                else:
                    yield from ctx.alu(4)   # spin pass: compare + branch
        timing.ends.append(ctx.sim.now)
        stats.timeout_flushes += batcher.timeout_flushes
        stats.backoff_yields += backoff.yields

    return [gpu.launch(proxy, grid=1, block=1)]


def run_engine_message_rate(cluster: Cluster,
                            connections: Sequence[ExtollConnection],
                            config: Optional[EngineConfig] = None,
                            per_connection: int = 120,
                            stats: Optional[EngineStats] = None,
                            ) -> Tuple[RatePoint, EngineStats]:
    """The Fig. 2 message-rate experiment through the engine proxy.
    Returns the measured :class:`RatePoint` plus the engine's accounting
    (for the MMIO-coalescing invariants).  Pass ``stats`` to share the
    accounting object with a live observer (the telemetry sampler polls it
    mid-run); omitted, a fresh one is created."""
    _check(connections, per_connection)
    config = config or EngineConfig.all_on()
    timing = _RateTiming()
    stats = stats if stats is not None else EngineStats()
    for conn in connections:
        conn.a.reset_flags()
        conn.b.reset_flags()
    handles = engine_extoll_rate_handles(cluster, connections, per_connection,
                                         timing, config, stats)
    run_measured(cluster, handles, "message-rate:engine",
                 connections=len(connections), per_connection=per_connection,
                 engine=config.describe())
    return timing.point(len(connections), per_connection), stats


# =============================================================================
# Message rate: the InfiniBand engine proxy (Fig. 5 structure replaced)
# =============================================================================

def engine_ib_rate_handles(cluster: Cluster,
                           connections: Sequence[IbConnection],
                           per_connection: int, timing: _RateTiming,
                           config: EngineConfig,
                           stats: Optional[EngineStats] = None) -> list:
    """One persistent block posting batched WQEs over every QP: N wide WQE
    stores, one fence, ONE doorbell per batch (cumulative producer index).
    Aggregation is an EXTOLL-side device; IB batches descriptors only."""
    stats = stats if stats is not None else EngineStats()
    gpu = connections[0].a.node.gpu
    lanes_n = len(connections)

    def proxy(ctx):
        sched = Scheduler(lanes_n, config.policy, config.priorities)
        backoff = AdaptiveBackoff(config.spin_passes, config.backoff_base,
                                  config.backoff_max)
        consumers = [c.a.send_cq_consumer() for c in connections]
        posted = [0] * lanes_n
        reaped = [0] * lanes_n
        inflight: List[Deque[int]] = [deque() for _ in range(lanes_n)]
        window = config.effective_window
        timing.starts.append(ctx.sim.now)
        while not all(posted[j] >= per_connection
                      and reaped[j] >= per_connection
                      for j in range(lanes_n)):
            progressed = False
            stats.passes += 1
            for j in sched.service_order():
                conn = connections[j]
                room = window - (posted[j] - reaped[j])
                todo = per_connection - posted[j]
                # Post whole batches (a partial one only as the tail): RC
                # ordering lets the batch's last WQE carry the only CQE.
                k = min(config.batch_size, todo)
                if 1 <= k <= room:
                    wqes = [ib_write_wqe(conn.a, MESSAGE_BYTES,
                                         posted[j] + i + 1,
                                         signaled=(i == k - 1
                                                   or not config.batching))
                            for i in range(k)]
                    conn.a.sq_index = yield from engine_post_send_batch(
                        ctx, conn.a.node.nic, conn.a.qp, wqes,
                        conn.a.sq_index, config.wqe_lanes)
                    posted[j] += k
                    stats.wrs += k
                    stats.inflight += k
                    stats.messages += k   # IB: one WQE per message, live
                    stats.doorbells += 1
                    if k > 1:
                        stats.batches += 1
                    if config.batching:
                        inflight[j].append(k)
                    else:
                        inflight[j].extend([1] * k)
                    progressed = True
                if reaped[j] < posted[j]:
                    stats.polls += 1
                    cqe = yield from gpu_poll_cq(ctx, consumers[j])
                    if cqe is not None:
                        done = inflight[j].popleft()
                        reaped[j] += done
                        stats.inflight -= done
                        stats.poll_hits += 1
                        progressed = True
            if progressed:
                backoff.reset()
            else:
                delay = backoff.idle()
                if delay > 0:
                    yield ctx.sim.timeout(delay)
                else:
                    yield from ctx.alu(4)
        timing.ends.append(ctx.sim.now)
        stats.backoff_yields += backoff.yields

    return [gpu.launch(proxy, grid=1, block=1)]


def run_engine_ib_message_rate(cluster: Cluster,
                               connections: Sequence[IbConnection],
                               config: Optional[EngineConfig] = None,
                               per_connection: int = 120,
                               ) -> Tuple[RatePoint, EngineStats]:
    _check(connections, per_connection)
    config = config or EngineConfig.all_on()
    timing = _RateTiming()
    stats = EngineStats()
    handles = engine_ib_rate_handles(cluster, connections, per_connection,
                                     timing, config, stats)
    run_measured(cluster, handles, "message-rate:ib-engine",
                 connections=len(connections), per_connection=per_connection,
                 engine=config.describe())
    return timing.point(len(connections), per_connection), stats


# =============================================================================
# Channel traffic: the proxy over msglib channels (faults interaction)
# =============================================================================

def channel_payload(channel_idx: int, msg_idx: int, nbytes: int) -> bytes:
    """Deterministic, distinct payload for (channel, message) — what the
    replay tests compare across runs."""
    return bytes((channel_idx * 37 + msg_idx * 11 + k) % 251
                 for k in range(nbytes))


def run_engine_channel_traffic(cluster: Cluster, channels: Sequence[Channel],
                               per_channel: int, payload_bytes: int = 32,
                               config: Optional[EngineConfig] = None,
                               limit: float = 600.0) -> Dict[str, object]:
    """One engine proxy on node A multiplexes sends over every channel in
    scheduler order; per-channel receivers on node B drain them.  Works
    unchanged over lossy links when the channels are reliable.  Returns
    the received payloads (per channel, in order) and the finish time."""
    if not channels:
        raise BenchmarkError("need at least one channel")
    if per_channel < 1:
        raise BenchmarkError("need at least one message per channel")
    config = config or EngineConfig.all_on()
    ends = [ch.a_to_b for ch in channels]
    reverses = [ch.b_to_a for ch in channels]
    received: List[List[bytes]] = [[] for _ in channels]

    def proxy(ctx):
        sched = Scheduler(len(channels), config.policy, config.priorities)
        sent = [0] * len(channels)
        while any(s < per_channel for s in sent):
            for j in sched.service_order():
                if sent[j] < per_channel:
                    data = channel_payload(j, sent[j], payload_bytes)
                    yield from gpu_send(ctx, ends[j], data)
                    sent[j] += 1

    def receiver(j: int):
        def body(ctx):
            for _ in range(per_channel):
                data = yield from gpu_recv(ctx, ends[j], reverses[j])
                received[j].append(data)
        return body

    # Each receiver on its own stream: they must run concurrently, or a
    # full ring on one channel would deadlock the serialized kernel queue.
    handles = [cluster.a.gpu.launch(proxy, grid=1, block=1)]
    handles += [cluster.b.gpu.launch(receiver(j), grid=1, block=1,
                                     stream=cluster.b.gpu.stream())
                for j in range(len(channels))]
    cluster.sim.run_until_complete(*handles, limit=cluster.sim.now + limit)
    return {"received": received, "finished_at": cluster.sim.now}
