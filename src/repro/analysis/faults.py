"""Chaos-sweep experiment drivers: collectives under injected faults.

Three questions, answered with data:

* **Correctness under faults** — with the reliability engines armed, does
  every collective still produce the exact expected result while the fault
  injector drops/corrupts/delays packets underneath it?
* **Zero cost when idle** — does attaching ``FaultPlan.none()`` (and the
  fault layer existing at all) leave a fault-free run's latency
  *bit-identical*?
* **Graceful degradation** — does goodput fall and latency rise
  monotonically (within noise) as the loss rate grows, rather than
  collapsing?

Every run threads its randomness through seeded streams
(:class:`~repro.sim.Simulator` seed x :class:`~repro.faults.FaultPlan`
seed), so any chaos point can be replayed bit-identically from its
parameters alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from ..collectives.bench import build_communicator, run_collective
from ..collectives.comm import CollectiveMode
from ..faults import FaultInjector, FaultPlan, ReliabilityConfig
from ..sim import Simulator
from .invariants import Verdict, identical, reconciles, relative_error

#: Latency may wobble this much between loss levels before the monotonic
#: degradation check calls it a violation (retransmission timing is bursty
#: at low loss: one unlucky RTO dominates a short run).
MONOTONIC_TOLERANCE = 0.25


@dataclass(frozen=True)
class ChaosPoint:
    """One (mode, size, loss) measurement of a collective under faults."""

    op: str
    mode: str
    nodes: int
    size: int                  # payload bytes per point-to-point message
    loss: float                # per-packet drop probability
    corrupt: float             # per-packet corruption probability
    correct: bool
    latency: float             # one full operation, seconds
    goodput: float             # MB/s of payload all ranks injected
    retransmits: int
    ack_replays: int
    drops: int                 # injector: probabilistic losses
    corruptions: int
    seed: int

    @property
    def latency_us(self) -> float:
        return self.latency * 1e6

    def degradation(self, baseline: "ChaosPoint") -> float:
        """Latency multiplier over the loss-free point."""
        return (self.latency / baseline.latency
                if baseline.latency > 0 else float("inf"))


def run_chaos_point(mode: CollectiveMode, size: int, loss: float,
                    corrupt: float = 0.0, nodes: int = 4,
                    op: str = "all-reduce", iterations: int = 4,
                    warmup: int = 1, seed: int = 1,
                    plan_seed: int = 1, slots: int = 16,
                    reliability_config: Optional[ReliabilityConfig] = None,
                    tracer=None, sim: Optional[Simulator] = None,
                    on_setup=None):
    """One collective under one fault level; returns
    ``(ChaosPoint, Communicator, FaultInjector)``.

    Pass ``sim`` to supply a pre-built simulator (e.g. one carrying a live
    telemetry plane; ``seed`` is then ignored in its favor), and
    ``on_setup(sim, cluster, comm, injector)`` to hook observers up after
    wiring but before the measured run starts.
    """
    if sim is None:
        sim = Simulator(seed=seed, tracer=tracer)
    else:
        seed = sim.seed
    cluster, comm = build_communicator(
        nodes, size, mode, sim=sim, slots=slots, reliable=True,
        reliability_config=reliability_config)
    plan = (FaultPlan.uniform(loss=loss, corrupt=corrupt, seed=plan_seed)
            if (loss or corrupt) else FaultPlan.none())
    injector = FaultInjector(sim, plan).attach(cluster.net)
    if on_setup is not None:
        on_setup(sim, cluster, comm, injector)
    result = run_collective(cluster, comm, op, size,
                            iterations=iterations, warmup=warmup)
    point = ChaosPoint(
        op=op, mode=mode.value, nodes=nodes, size=size, loss=loss,
        corrupt=corrupt, correct=result.correct,
        latency=result.point.latency, goodput=result.bandwidth.mb_per_s,
        retransmits=comm.retransmits,
        ack_replays=sum(e.ack_replays for e in comm.reliability_engines),
        drops=injector.drops, corruptions=injector.corruptions, seed=seed)
    return point, comm, injector


def chaos_sweep(loss_rates: Sequence[float], sizes: Sequence[int],
                modes: Iterable[CollectiveMode], nodes: int = 4,
                op: str = "all-reduce", iterations: int = 4,
                warmup: int = 1, seed: int = 1,
                corrupt_ratio: float = 0.5) -> List[ChaosPoint]:
    """The full grid: loss rate x message size x control mode.  Each point
    gets a fresh cluster; ``corrupt_ratio`` scales the corruption
    probability off the loss rate (corruption IS loss after the CRC check,
    so the two stress the same machinery at different layers)."""
    points = []
    for mode in modes:
        for size in sizes:
            for loss in loss_rates:
                point, _, _ = run_chaos_point(
                    mode, size, loss, corrupt=loss * corrupt_ratio,
                    nodes=nodes, op=op, iterations=iterations,
                    warmup=warmup, seed=seed)
                points.append(point)
    return points


# -- checks ---------------------------------------------------------------------

def zero_cost_check(mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
                    size: int = 64, nodes: int = 4, op: str = "all-reduce",
                    iterations: int = 4, warmup: int = 1,
                    seed: int = 1) -> Tuple[Verdict, float]:
    """A fault-free run with ``FaultPlan.none()`` attached (but without the
    reliability engines) must be *bit-identical* in latency, final
    simulated time and result to a run that never imports the fault layer.
    Returns the verdict and the bare run's latency."""

    def measure(with_null_plan: bool) -> dict:
        sim = Simulator(seed=seed)
        cluster, comm = build_communicator(nodes, size, mode, sim=sim)
        if with_null_plan:
            FaultInjector(sim, FaultPlan.none()).attach(cluster.net)
        result = run_collective(cluster, comm, op, size,
                                iterations=iterations, warmup=warmup)
        return {"latency": result.point.latency, "end_time": sim.now,
                "correct": result.correct}

    bare = measure(False)
    return (identical("zero-cost check", bare, measure(True)),
            bare["latency"])


def monotonic_check(points: Sequence[ChaosPoint],
                    tolerance: float = MONOTONIC_TOLERANCE) -> dict:
    """Within each (mode, size) series, latency must not *improve* as loss
    grows (beyond ``tolerance``), and goodput must not improve either —
    i.e. faults degrade service, they never speed it up."""
    violations = []
    series = {}
    for p in sorted(points, key=lambda p: (p.mode, p.size, p.loss)):
        series.setdefault((p.mode, p.size), []).append(p)
    for (mode, size), run in series.items():
        for prev, cur in zip(run, run[1:]):
            if cur.latency < prev.latency * (1.0 - tolerance):
                violations.append(
                    f"{mode}/{size}B: latency improved "
                    f"{prev.latency_us:.2f}us@loss={prev.loss:g} -> "
                    f"{cur.latency_us:.2f}us@loss={cur.loss:g}")
            if cur.goodput > prev.goodput * (1.0 + tolerance):
                violations.append(
                    f"{mode}/{size}B: goodput improved "
                    f"{prev.goodput:.1f}MB/s@loss={prev.loss:g} -> "
                    f"{cur.goodput:.1f}MB/s@loss={cur.loss:g}")
    return {"violations": violations, "ok": not violations}


def reconcile_retransmits(tracer, comm) -> dict:
    """The chaos harness's books must balance: ``fault/retransmit``
    instants in the Chrome trace vs the reliability engines' counters,
    under the shared agreement rule."""
    traced = sum(1 for i in tracer.instants
                 if i.category == "fault" and i.name == "retransmit")
    counted = comm.retransmits
    return {"traced": traced, "counted": counted,
            "rel_err": relative_error(traced, counted),
            "ok": reconciles("retransmit reconcile", traced, counted).ok}


# -- rendering -------------------------------------------------------------------

def render_chaos(points: Sequence[ChaosPoint]) -> str:
    """Fixed-width table of chaos points, with degradation vs the loss-free
    point of each (mode, size) series."""
    baselines = {}
    for p in points:
        if p.loss == 0 and p.corrupt == 0:
            baselines[(p.mode, p.size)] = p
    header = ("mode".ljust(20) + "size".rjust(6) + "loss".rjust(7)
              + "latency".rjust(12) + "x base".rjust(8)
              + "goodput".rjust(11) + "retx".rjust(6) + "drops".rjust(7)
              + "  ok")
    lines = [header, "-" * len(header)]
    for p in points:
        base = baselines.get((p.mode, p.size))
        degr = f"{p.degradation(base):6.2f}x" if base else "      -"
        lines.append(
            p.mode.ljust(20) + f"{p.size}".rjust(6) + f"{p.loss:.3f}".rjust(7)
            + f"{p.latency_us:10.3f}us" + degr.rjust(8)
            + f"{p.goodput:9.1f}MB" + f"{p.retransmits}".rjust(6)
            + f"{p.drops + p.corruptions}".rjust(7)
            + ("   OK" if p.correct else "   FAIL"))
    return "\n".join(lines)
