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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..cluster import Cluster
from ..errors import ConfigError
from ..extoll import NotifyFlags, RmaWorkRequest
from ..core.drive import extoll_put, gpu_put, run_measured
from ..core.gpu_rma import gpu_rma_try_notification
from ..core.message_rate import MESSAGE_BYTES, _check, _RateTiming
from ..core.pingpong import _PingTiming, _validate, notified_pingpong
from ..core.results import LatencyPoint, RatePoint
from ..core.setup import ExtollConnection
from ..sim import SampledStats
from .batch import Aggregator, DoorbellBatcher, FlushPolicy
from .scheduler import AdaptiveBackoff, Scheduler
from .wqe_gen import DEFAULT_LANES, engine_post_batch, engine_rma_post


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
class EngineStats(SampledStats):
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
    # The proxy: ONE persistent block multiplexing every connection.
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

    run_measured(cluster, [gpu.launch(proxy, grid=1, block=1)],
                 "message-rate:engine",
                 connections=len(connections), per_connection=per_connection,
                 engine=config.describe())
    return timing.point(len(connections), per_connection), stats
