"""Open-loop traffic generation: the service-time view of put/get APIs.

The paper's benchmarks (and PR 2–7's harnesses) are *closed loops*: each
iteration starts when the previous one finishes, so measured latency is
pure service time and queueing is invisible by construction.  A service
keeps no such discipline — requests arrive on their own clock.  This
module drives workload requests from a seeded
:class:`~repro.workloads.arrivals.ArrivalProcess` through
``Simulator.call_later``, issuing on the arrival clock *regardless of
completions*, so queueing delay becomes part of every recorded latency
and the tail (p99/p999) blows up as offered load approaches the service
rate — the behavior closed loops cannot exhibit.

One :class:`WorkloadRun` is single-shot and fully deterministic: the
arrival stream replays bit-identically from its own seed, the model from
the simulator's.  ``loop="closed"`` runs the same machinery with each
request arriving the instant its predecessor completes — the zero-queue
reference the open-loop numbers are judged against, and the calibration
of the service rate whose fractions
:func:`~repro.perf.scenarios.workload_service` offers as open-loop load.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.invariants import counts_match, reconciles, relative_error
from ..cluster import build_extoll_cluster
from ..errors import BenchmarkError
from ..faults.injector import FaultInjector
from ..sim import SampledStats, Simulator
from .apps import Workload, get_workload
from .arrivals import arrival_process
from .transport import WorkloadTransport

#: A point "keeps up" while achieved throughput is >= 95% of offered.
KNEE_EFFICIENCY = 0.95


@dataclass
class WorkloadStats(SampledStats):
    """Live request accounting, in the uniform ``snapshot()``/``diff()``
    shape the telemetry sampler polls (counters accumulate; the two
    gauges report instantaneous levels)."""

    issued: int = 0         # requests arrived (issued to the queue)
    completed: int = 0      # requests fully finished on every rank
    verified: int = 0       # ... with every rank's result exact
    failures: int = 0       # ... with at least one wrong result
    queue_depth: int = 0    # GAUGE: arrived but not yet dispatched
    inflight: int = 0       # GAUGE: dispatched but not yet completed

    GAUGES = ("queue_depth", "inflight")

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)

    def snapshot(self) -> Dict[str, int]:
        return self.as_dict()



def exact_percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of the EXACT sample set — the
    ground truth the recorder's power-of-two histograms approximate."""
    if not 0 <= q <= 100:
        raise BenchmarkError(f"percentile must be in 0..100, got {q!r}")
    if not values:
        return 0.0
    ordered = sorted(values)
    idx = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[idx]


@dataclass(frozen=True)
class RunResult:
    """One run's complete measurement record."""

    workload: str
    mode: str
    loop: str                   # "open" | "closed"
    arrival: str                # arrival-process kind ("closed" loop: "-")
    rate: float                 # offered req/s (closed loop: 0.0)
    nodes: int
    size: int
    requests: int
    seed: int
    latencies: Tuple[float, ...]      # completion - arrival (sojourn)
    service_times: Tuple[float, ...]  # completion - dispatch
    waits: Tuple[float, ...]          # dispatch - arrival (queueing)
    first_arrival: float
    last_arrival: float
    first_completion: float
    last_completion: float
    verified: bool
    stats: WorkloadStats

    @property
    def elapsed(self) -> float:
        return self.last_completion - self.first_arrival

    @property
    def offered_measured(self) -> float:
        """The arrival rate actually realized (n-1 inter-arrival
        intervals) — the fair yardstick for achieved throughput, since a
        finite seeded sample never hits the configured mean exactly."""
        span = self.last_arrival - self.first_arrival
        if self.requests < 2 or span <= 0:
            return self.rate
        return (self.requests - 1) / span

    @property
    def achieved_rate(self) -> float:
        """Completion throughput over the matching n-1 inter-completion
        intervals.  While the system keeps up this tracks
        :attr:`offered_measured`; past saturation it pins at the service
        rate while arrivals race ahead."""
        span = self.last_completion - self.first_completion
        if self.requests < 2 or span <= 0:
            return self.requests / self.elapsed if self.elapsed > 0 else 0.0
        return (self.requests - 1) / span

    @property
    def efficiency(self) -> float:
        """Achieved over *measured* offered throughput: judging against the
        realized arrival stream keeps finite-sample noise out of the
        knee."""
        offered = self.offered_measured
        return self.achieved_rate / offered if offered else 0.0

    @property
    def mean_latency(self) -> float:
        return sum(self.latencies) / len(self.latencies)

    @property
    def mean_service(self) -> float:
        return sum(self.service_times) / len(self.service_times)

    @property
    def mean_wait(self) -> float:
        return sum(self.waits) / len(self.waits)

    def percentile(self, q: float) -> float:
        return exact_percentile(list(self.latencies), q)

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    def summary(self) -> dict:
        """JSON-safe digest (times in seconds)."""
        return {
            "workload": self.workload, "mode": self.mode, "loop": self.loop,
            "arrival": self.arrival, "rate": self.rate, "nodes": self.nodes,
            "size": self.size, "requests": self.requests, "seed": self.seed,
            "p50": self.p50, "p99": self.p99, "p999": self.p999,
            "mean_latency": self.mean_latency,
            "mean_service": self.mean_service,
            "mean_wait": self.mean_wait,
            "offered_measured": self.offered_measured,
            "achieved_rate": self.achieved_rate,
            "elapsed": self.elapsed,
            "verified": self.verified,
            "stats": self.stats.snapshot(),
        }


class WorkloadRun:
    """One single-shot (workload, mode, loop discipline) measurement.

    Pass ``sim`` to wire a telemetry plane around the run: build the
    simulator, construct the :class:`~repro.telemetry.TelemetryPlane` on
    it, then hand it here and call ``plane.watch_workloads(run)`` before
    :meth:`execute`.  Without a tracer the run records only the exact
    in-memory latency lists — no spans, no histograms, no overhead.
    """

    def __init__(self, workload: Union[str, Workload], mode: str,
                 nodes: int = 4, size: int = 256, requests: int = 32,
                 loop: str = "open", arrival: str = "poisson",
                 rate: float = 0.0, seed: int = 0,
                 burst_factor: float = 8.0, alpha: float = 1.5,
                 fault_plan=None, reliable: bool = False,
                 reliability_config=None, slots: int = 16,
                 sim: Optional[Simulator] = None) -> None:
        if isinstance(workload, str):
            workload = get_workload(workload)
        if loop not in ("open", "closed"):
            raise BenchmarkError(
                f"unknown loop discipline {loop!r} (choose from: open, "
                f"closed)")
        if requests < 1:
            raise BenchmarkError(f"need requests >= 1, got {requests}")
        if fault_plan is not None and not reliable:
            raise BenchmarkError(
                "fault injection drops raw puts on the floor; build the "
                "run with reliable=True so the retransmission engines "
                "recover them")
        self.workload = workload
        self.mode = mode
        self.loop = loop
        self.nodes = nodes
        self.size = size
        self.requests = requests
        self.seed = seed
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.cluster = build_extoll_cluster(sim=self.sim, num_nodes=nodes)
        if fault_plan is not None:
            self.injector = FaultInjector(self.sim, fault_plan)
            self.injector.attach(self.cluster.net)
        else:
            self.injector = None
        if loop == "open":
            if not 0 < rate < math.inf:
                raise BenchmarkError(
                    f"an open-loop run needs a finite offered rate > 0 "
                    f"req/s, got {rate!r}")
            kwargs = (dict(burst_factor=burst_factor, alpha=alpha)
                      if arrival == "bursty" else {})
            self.arrivals = arrival_process(arrival, rate, seed, **kwargs)
            self.arrival_kind = arrival
            self.rate = rate
        else:
            self.arrivals = None
            self.arrival_kind = "-"
            self.rate = 0.0
        self.transport = WorkloadTransport(
            self.cluster, workload, mode, size, slots=slots,
            reliable=reliable, reliability_config=reliability_config)
        self.stats = WorkloadStats()
        self._executed = False

    def execute(self, limit: float = 600.0) -> RunResult:
        """Run to completion of all requests; returns the result record."""
        if self._executed:
            raise BenchmarkError(
                "a WorkloadRun is single-shot (channel sequence state and "
                "the arrival stream advance); build a fresh run")
        self._executed = True
        sim, stats = self.sim, self.stats
        trc = sim.tracer
        queue: deque = deque()
        arrival_at: Dict[int, float] = {}
        dispatch_at: Dict[int, float] = {}
        spans: Dict[int, object] = {}
        latencies: List[float] = []
        services: List[float] = []
        waits: List[float] = []
        busy = [False]
        all_ok = [True]
        first_arrival = [float("inf")]
        last_arrival = [0.0]
        first_completion = [float("inf")]
        last_completion = [0.0]
        done = sim.event(name="workload:done")

        def arrive(req: int) -> None:
            now = sim.now
            first_arrival[0] = min(first_arrival[0], now)
            last_arrival[0] = max(last_arrival[0], now)
            arrival_at[req] = now
            stats.issued += 1
            if trc.enabled:
                # One track per request: queued requests' spans overlap,
                # which a shared track's span stack would misparent.
                spans[req] = trc.begin(
                    "workload", "request", track=f"workload.req{req}",
                    req=req, workload=self.workload.name, mode=self.mode)
            queue.append(req)
            stats.queue_depth = len(queue)
            dispatch()

        def dispatch() -> None:
            if busy[0] or not queue:
                return
            req = queue.popleft()
            stats.queue_depth = len(queue)
            busy[0] = True
            stats.inflight = 1
            dispatch_at[req] = sim.now
            if trc.wants("causal"):
                # Stamped at the same instant service_times starts counting,
                # so the critical path reconciles against it exactly.
                trc.flow_event("req.begin", "driver", req=req)
            self.transport.start_request(
                req, lambda results, r=req: complete(r, results), failed)

        def failed(exc: BaseException) -> None:
            # A failed rank fails the awaited event: the run raises it.
            if not done.triggered:
                done.fail(exc)

        def complete(req: int, results: Dict[int, object]) -> None:
            now = sim.now
            if trc.wants("causal"):
                trc.flow_event("req.end", "driver", req=req)
            first_completion[0] = min(first_completion[0], now)
            last_completion[0] = now
            busy[0] = False
            stats.inflight = 0
            stats.completed += 1
            good = all(
                self.workload.verify(req, r, self.nodes, self.size,
                                     results.get(r))
                for r in range(self.nodes))
            if good:
                stats.verified += 1
            else:
                stats.failures += 1
                all_ok[0] = False
            span = spans.pop(req, None)
            if span is not None:
                span.end(verified=good)
            latencies.append(now - arrival_at[req])
            services.append(now - dispatch_at[req])
            waits.append(dispatch_at[req] - arrival_at[req])
            if stats.completed == self.requests:
                done.succeed()
                return
            if self.loop == "closed":
                arrive(stats.issued)
            dispatch()

        if self.loop == "open":
            # The open loop: a self-re-arming call_later chain fires every
            # arrival on the arrival process's clock, completions be damned.
            issued = [0]

            def fire() -> None:
                arrive(issued[0])
                issued[0] += 1
                if issued[0] < self.requests:
                    sim.call_later(self.arrivals.next_gap(), fire,
                                   name="workload:arrival")

            sim.call_later(self.arrivals.next_gap(), fire,
                           name="workload:arrival")
        else:
            arrive(0)

        sim.run_until_complete(done, limit=sim.now + limit)
        return RunResult(
            workload=self.workload.name, mode=self.mode, loop=self.loop,
            arrival=self.arrival_kind, rate=self.rate, nodes=self.nodes,
            size=self.size, requests=self.requests, seed=self.seed,
            latencies=tuple(latencies), service_times=tuple(services),
            waits=tuple(waits), first_arrival=first_arrival[0],
            last_arrival=last_arrival[0],
            first_completion=first_completion[0],
            last_completion=last_completion[0], verified=all_ok[0],
            stats=stats)


def reconcile(result: RunResult, recorder) -> dict:
    """Cross-check the recorder's ``span.workload.request`` histogram
    against the run's exact latency list: the count must match exactly and
    the sum within 1% (the recorder's power-of-two percentiles are
    octave-accurate by design, so they are not the comparable quantity)."""
    hist = recorder.metrics.histogram("span.workload.request")
    exact_count = len(result.latencies)
    exact_sum = sum(result.latencies)
    return {
        "span_count": hist.count, "exact_count": exact_count,
        "span_sum": hist.total, "exact_sum": exact_sum,
        "count_err": relative_error(hist.count, exact_count),
        "sum_err": relative_error(hist.total, exact_sum),
        "ok": (counts_match("count", hist.count, exact_count).ok
               and reconciles("sum", hist.total, exact_sum).ok),
    }


__all__ = [
    "KNEE_EFFICIENCY",
    "RunResult",
    "WorkloadRun",
    "WorkloadStats",
    "exact_percentile",
    "reconcile",
]
