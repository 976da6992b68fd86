"""The canonical benchmark scenarios the regression harness tracks.

Each scenario is a deterministic, seconds-scale slice of one experiment
family — small enough for CI, large enough that a latency-model change
shows up in its metrics.  Scenario functions return a
:class:`~repro.perf.harness.ScenarioResult`; the harness handles baselines
and comparison.

A scenario's parameters are its grid (sizes, counts, seeds), and their
defaults are the slice its ``BENCH_*.json`` pins.  The ``engine``,
``mpi``, ``faults``, ``fabrics``, ``collectives`` and ``triggered``
subcommands run the same functions with their flags as parameters, so
each of their checks is computed here once, over the runs it judges, and
a ``bench --check`` run and a subcommand run differ only in the grid.

Determinism contract: every ``sim``/``count`` metric must be bit-identical
across processes and machines (the simulator is seeded and ties are
sequence-broken), so baselines can live in git.  Anything host-dependent
must be recorded with ``kind="wallclock"``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis import figures
from ..analysis import invariants as inv
from ..analysis.faults import (monotonic_check, reconcile_retransmits,
                               run_chaos_point, zero_cost_check)
from ..analysis.invariants import Verdict
from ..causal import analyze_run
from ..collectives.algorithms import expected_phases, expected_steps
from ..collectives.bench import (ALLREDUCE_OPS, build_communicator,
                                 op_connectivity, op_max_payload,
                                 run_collective, validate_point)
from ..collectives.comm import CollectiveMode
from ..core import (
    ExtollMode,
    IbMode,
    RateMethod,
    measure_bandwidth,
    measure_message_rate,
    measure_pingpong,
)
from ..engine import EngineConfig, EngineStats
from ..errors import BenchmarkError
from ..fabrics import FabricConfig, build_topology, instantiate, run_permutation
from ..fabrics.collective import run_collective as run_fabric
from ..mpi.bench import (engine_floor_checks, run_mode_allreduce_mmio,
                         run_mpi_allreduce, run_mpi_pingpong)
from ..mpi.comm import MpiConfig
from ..obs.export import phase_breakdown, reconcile_with_point
from ..obs.tracer import SpanTracer
from ..sim import Simulator
from ..triggered.bench import run_host_assist, run_triggered
from ..units import KIB, MIB
from .harness import Scenario, ScenarioResult

SCENARIOS: Dict[str, Scenario] = {}


def _register(name: str, description: str, quick: bool = True):
    def deco(fn):
        SCENARIOS[name] = Scenario(name=name, description=description,
                                   run=fn, quick=quick)
        return fn
    return deco


def get_scenarios(names: Optional[Iterable[str]] = None,
                  quick_only: bool = False) -> List[Scenario]:
    """Resolve a scenario selection; unknown names raise ``KeyError`` with
    the valid choices."""
    if names:
        out = []
        for name in names:
            if name not in SCENARIOS:
                raise KeyError(
                    f"unknown scenario {name!r} (choose from: "
                    f"{', '.join(sorted(SCENARIOS))})")
            out.append(SCENARIOS[name])
        return out
    return [s for s in SCENARIOS.values() if s.quick or not quick_only]


# -- Fig. 1a: EXTOLL latency ----------------------------------------------------

@_register("extoll-latency",
           "EXTOLL ping-pong latency, all four control-flow modes "
           "(Fig. 1a slice)")
def extoll_latency() -> ScenarioResult:
    res = ScenarioResult()
    points = {}
    for mode in (ExtollMode.DIRECT, ExtollMode.POLL_ON_GPU,
                 ExtollMode.ASSISTED, ExtollMode.HOST_CONTROLLED):
        for size in (64, 4 * KIB, 64 * KIB):
            p = measure_pingpong(mode, size, iterations=10, warmup=2)
            points[(mode, size)] = p
            res.metric(f"{mode.value}/{size}B/latency_us", p.latency_us,
                       unit="us")
    res.invariant("fig1-2x-gap", inv.two_x_gap(
        points[(ExtollMode.DIRECT, 64)].latency,
        points[(ExtollMode.HOST_CONTROLLED, 64)].latency))
    res.invariant("devmem-poll-beats-sysmem", inv.faster_than(
        points[(ExtollMode.POLL_ON_GPU, 64)].latency,
        points[(ExtollMode.DIRECT, 64)].latency,
        "pollOnGPU", "direct"))
    return res


# -- Fig. 1b: EXTOLL bandwidth --------------------------------------------------

@_register("extoll-bandwidth",
           "EXTOLL streaming bandwidth incl. the >1MiB drop (Fig. 1b "
           "slice)", quick=False)
def extoll_bandwidth() -> ScenarioResult:
    res = ScenarioResult()
    curves = {}
    for mode in (ExtollMode.DIRECT, ExtollMode.HOST_CONTROLLED):
        curve = []
        for size in (256 * KIB, 1 * MIB, 4 * MIB):
            p = measure_bandwidth(mode, size, count=8)
            curve.append((size, p.mb_per_s))
            res.metric(f"{mode.value}/{size}B/mb_per_s", p.mb_per_s,
                       unit="MB/s")
        curves[mode] = curve
    res.invariant("fig1b-large-message-drop",
                  inv.bandwidth_drops_after_peak(curves[ExtollMode.DIRECT]))
    return res


# -- Fig. 3: poll-to-post ratio -------------------------------------------------

@_register("extoll-poll-ratio",
           "Poll-time vs WR-generation-time, system vs device memory "
           "(Fig. 3 slice)")
def extoll_poll_ratio() -> ScenarioResult:
    res = ScenarioResult()
    ratios = {}
    for mode, label in ((ExtollMode.DIRECT, "sysmem"),
                        (ExtollMode.POLL_ON_GPU, "devmem")):
        for size in (64, 4 * KIB):
            p = measure_pingpong(mode, size, iterations=10, warmup=2)
            ratios[(label, size)] = p.poll_to_post_ratio
            res.metric(f"{label}/{size}B/poll_to_post_ratio",
                       p.poll_to_post_ratio, unit="x")
    res.invariant("fig3-sysmem-polling-dominates",
                  inv.sysmem_polling_dominates(ratios[("sysmem", 64)],
                                               ratios[("devmem", 64)]))
    # From 1 MiB the payload transfer dominates both modes (§V-A3): the
    # published figure's own points, on its own testbed.
    sysmem, devmem = figures.fig3_polling_ratio(sizes=[1 * MIB, 4 * MIB])
    for label, series in (("sysmem", sysmem), ("devmem", devmem)):
        for p in series.points:
            res.metric(f"{label}/{p.size}B/poll_to_post_ratio",
                       p.poll_to_post_ratio, unit="x")
    gap = max(inv.relative_error(s.poll_to_post_ratio, d.poll_to_post_ratio)
              for s, d in zip(sysmem.points, devmem.points))
    res.invariant("fig3-modes-agree-from-1MiB",
                  inv.at_most(gap, inv.RECONCILE_TOLERANCE,
                              "sysmem/devmem poll-to-post gap", "1%"))
    return res


# -- Fig. 4a: InfiniBand latency ------------------------------------------------

@_register("ib-latency",
           "InfiniBand ping-pong latency, all four control-flow modes "
           "(Fig. 4a slice)")
def ib_latency() -> ScenarioResult:
    res = ScenarioResult()
    points = {}
    for mode in (IbMode.BUF_ON_GPU, IbMode.BUF_ON_HOST, IbMode.ASSISTED,
                 IbMode.HOST_CONTROLLED):
        for size in (64, 4 * KIB):
            p = measure_pingpong(mode, size, iterations=10, warmup=2)
            points[(mode, size)] = p
            res.metric(f"{mode.value}/{size}B/latency_us", p.latency_us,
                       unit="us")
    res.invariant("fig4a-gpu-buffers-beat-host-buffers", inv.faster_than(
        points[(IbMode.BUF_ON_GPU, 64)].latency,
        points[(IbMode.BUF_ON_HOST, 64)].latency,
        "bufOnGPU", "bufOnHost"))
    res.invariant("fig4a-host-control-fastest", inv.faster_than(
        points[(IbMode.HOST_CONTROLLED, 64)].latency,
        min(points[(IbMode.BUF_ON_GPU, 64)].latency,
            points[(IbMode.ASSISTED, 64)].latency),
        "hostControlled", "best GPU-controlled"))
    return res


# -- collectives ----------------------------------------------------------------

#: Accepted band for one ring all-reduce step over the 2-node
#: ``dev2dev-pollOnGPU`` ping-pong one-way latency at the same size.  A
#: step is a put plus a device-memory poll, like half a ping-pong round
#: trip, but rides the msglib slot protocol (staging stores, header,
#: credit bookkeeping) and overlaps along the ring, so the ratio sits
#: above 1 without being allowed to run away.
STEP_COST_BAND = (0.5, 3.0)

#: The largest ring step the per-step cost judges.  msglib stages one
#: device word per 8 payload bytes, a per-byte cost the ping-pong never
#: pays: the ratio is 0.98-2.83x from 8 B to 256 B at N = 2-8, but 4.2x
#: at 512 B and 11.6x at 4 KiB.
STEP_COST_MAX_BYTES = 256


def _point(r) -> str:
    """A collectives result's grid point, as its metric names carry it."""
    return f"{r.op}/{r.mode}/N{r.nodes}/{r.size}B"


@_register("collectives-allreduce",
           "4-node ring all-reduce over put/get, GPU- and host-controlled")
def collectives_allreduce(ops: Sequence[str] = ("all-reduce",),
                          modes: Sequence[CollectiveMode] = (
                              CollectiveMode.POLL_ON_GPU,
                              CollectiveMode.HOST_CONTROLLED),
                          nodes: Sequence[int] = (4,),
                          sizes: Sequence[int] = (64,),
                          topology: str = "auto", iterations: int = 4,
                          warmup: int = 1) -> ScenarioResult:
    """The op x mode x N x size grid of collectives, one fresh cluster
    per point, every rank's result checked exactly.  The whole grid is
    validated before any point runs, and its first point is traced: its
    phase spans must reconcile with its latency.  Every all-reduce point
    must take its schedule's closed-form step count, and every
    ``dev2dev-pollOnGPU`` ring step of at most
    :data:`STEP_COST_MAX_BYTES` must cost within :data:`STEP_COST_BAND`
    of a 2-node ping-pong one-way at its size."""
    grid = [(op, mode, n, size) for op in ops for mode in modes
            for n in nodes for size in sizes]
    for op, _mode, n, size in grid:
        validate_point(op, n, size, topology)
    res = ScenarioResult()
    tracer = SpanTracer()
    results = []
    for op, mode, n, size in grid:
        cluster, comm = build_communicator(
            n, size, mode, topology,
            sim=Simulator(tracer=tracer) if not results else None,
            connectivity=op_connectivity(op),
            max_payload=op_max_payload(op, n, size))
        r = run_collective(cluster, comm, op, size, iterations=iterations,
                           warmup=warmup)
        results.append(r)
        res.metric(f"{_point(r)}/latency_us", r.latency_us, unit="us")
        res.metric(f"{_point(r)}/steps", r.steps, kind="count")

    bad = [_point(r) for r in results if not r.correct]
    res.invariant("correct", (
        not bad, f"{len(results) - len(bad)}/{len(results)} point(s) "
                 f"computed every rank's exact result"
                 + (f"; wrong: {', '.join(bad)}" if bad else "")))
    allreduce = [(r, expected_steps(ALLREDUCE_OPS[r.op], r.nodes))
                 for r in results if r.op in ALLREDUCE_OPS]
    if allreduce:
        bad = [f"{_point(r)} steps={r.steps} want={want}"
               for r, want in allreduce if r.steps != want]
        res.invariant("steps-exact", (
            not bad, f"{len(allreduce)} all-reduce point(s) at their "
                     f"schedule's closed-form step count"
            if not bad else "; ".join(bad)))
    first = results[0]
    stat = phase_breakdown(tracer).get(first.op)
    res.verdicts.append(inv.reconciles(
        f"span-reconcile-{first.op}", stat.total if stat else 0.0,
        first.point.latency * first.iterations))
    ring = [r for r in results if r.op == "all-reduce"
            and r.mode == CollectiveMode.POLL_ON_GPU.value
            and r.size <= STEP_COST_MAX_BYTES]
    step_costs = {}
    if ring:
        one_way = {size: measure_pingpong(ExtollMode.POLL_ON_GPU, size,
                                          iterations, warmup).latency
                   for size in sorted({r.size for r in ring})}
        step_costs = {(r.nodes, r.size): r.point.latency
                      / expected_phases("ring", r.nodes) / one_way[r.size]
                      for r in ring}
        lo, hi = STEP_COST_BAND
        res.invariant("step-cost", (
            all(lo <= x <= hi for x in step_costs.values()),
            "ring step / 2-node dev2dev-pollOnGPU one-way: "
            + ", ".join(f"N{n}/{size}B {x:.3f}x"
                        for (n, size), x in step_costs.items())
            + f" (band {lo:g}-{hi:g}x)"))
    res.runs.update(results=results, tracer=tracer, step_costs=step_costs)
    return res


# -- faults ---------------------------------------------------------------------

def _loss_label(loss: float) -> str:
    return "zero-loss" if loss == 0 else f"{loss * 100:g}pct-loss"


@_register("faults-overhead",
           "Reliability cost at zero loss (must be ~free) and recovery "
           "under 5% packet loss")
def faults_overhead(modes: Sequence[CollectiveMode] = (
                        CollectiveMode.POLL_ON_GPU,),
                    sizes: Sequence[int] = (64,),
                    losses: Sequence[float] = (0.0, 0.05),
                    corrupt_ratio: float = 0.0, nodes: int = 4,
                    op: str = "all-reduce", iterations: int = 4,
                    warmup: int = 1, seed: int = 1) -> ScenarioResult:
    """The chaos grid: ``op`` under loss rate x message size x control
    mode, reliability engines armed, one fresh cluster per point.
    Corruption rides along at ``corrupt_ratio`` of each loss rate.
    ``losses`` must hold 0: each (mode, size) series is judged against
    its loss-free point.  The first series' highest-loss point is traced
    for the retransmit reconcile, and the first (mode, size) also runs
    without the reliability engines for the zero-cost and overhead
    checks."""
    res = ScenarioResult()
    tracer = SpanTracer()
    traced = (modes[0], sizes[0], max(losses))
    points, series = [], {}
    for mode in modes:
        for size in sizes:
            for loss in losses:
                point, comm, _ = run_chaos_point(
                    mode, size, loss, corrupt=loss * corrupt_ratio,
                    nodes=nodes, op=op, iterations=iterations,
                    warmup=warmup, seed=seed,
                    tracer=tracer if (mode, size, loss) == traced else None)
                if (mode, size, loss) == traced:
                    traced_comm = comm
                points.append(point)
                series.setdefault((mode.value, size), []).append(point)
                key = f"{mode.value}/{size}B/{_loss_label(loss)}"
                res.metric(f"{key}/latency_us", point.latency_us, unit="us")
                res.metric(f"{key}/retransmits", point.retransmits,
                           kind="count")
                res.metric(f"{key}/drops", point.drops, kind="count")
    clean = {key: next(p for p in run if p.loss == 0)
             for key, run in series.items()}
    zero_cost, bare_latency = zero_cost_check(
        modes[0], sizes[0], nodes=nodes, op=op, iterations=iterations,
        warmup=warmup, seed=seed)
    res.verdicts.append(zero_cost)
    res.invariant("zero-loss-no-retransmits",
                  (all(p.retransmits == 0 for p in clean.values()),
                   f"{sum(p.retransmits for p in clean.values())} "
                   f"retransmits at loss=0 over {len(clean)} series"))
    res.invariant("reliability-overhead-bounded", inv.reliability_is_free(
        clean[(modes[0].value, sizes[0])].latency, bare_latency,
        max_overhead=0.35))
    bad = [p for p in points if not p.correct]
    res.invariant("correct-under-loss",
                  (not bad, f"{len(points) - len(bad)}/{len(points)} chaos "
                            f"points computed the exact result"))
    worst = {key: max(run, key=lambda p: p.loss)
             for key, run in series.items()}
    res.invariant("loss-actually-recovered", (
        all(p.retransmits > 0 and p.latency > clean[key].latency
            for key, p in worst.items()),
        "; ".join(f"{p.mode}/{p.size}B at loss={p.loss:g}: "
                  f"{p.retransmits} retransmits, latency "
                  f"{clean[key].latency_us:.2f} -> {p.latency_us:.2f}us"
                  for key, p in worst.items())))
    mono = monotonic_check(points)
    res.invariant("monotonic-degradation",
                  (mono["ok"], "; ".join(mono["violations"])
                   or "latency and goodput never improve as loss grows"))
    res.verdicts.append(reconcile_retransmits(tracer, traced_comm))
    res.runs.update(points=points, tracer=tracer)
    return res


# -- offload engine -------------------------------------------------------------

#: The offload engine's variants, in ablation order.
ENGINE_VARIANTS: Tuple[Tuple[str, EngineConfig], ...] = (
    ("engine-baseline", EngineConfig.baseline()),
    ("engine-warp", EngineConfig.warp_only()),
    ("engine-batch", EngineConfig.batch_only()),
    ("engine-all", EngineConfig.all_on()),
)


@_register("engine-latency",
           "Offload-engine ping-pong latency vs dev2dev-direct: baseline, "
           "warp-parallel, batched, all-on")
def engine_latency(sizes: Sequence[int] = (64, 4 * KIB),
                   iterations: int = 10, warmup: int = 2,
                   seed: int = 0) -> ScenarioResult:
    """Ping-pong latency per size of ``dev2dev-direct`` and of every
    engine variant, one fresh simulator each.  The shape checks read the
    smallest size, whose all-on run is traced: its phase spans must
    reconcile with its point."""
    res = ScenarioResult()
    small = min(sizes)
    tracer = SpanTracer()
    points: Dict[int, Dict[str, object]] = {}
    for size in sizes:
        row = points[size] = {}
        for name, mode in (("direct", ExtollMode.DIRECT),) + ENGINE_VARIANTS:
            traced = (name, size) == ("engine-all", small)
            p = row[name] = measure_pingpong(
                mode, size, iterations, warmup,
                sim=Simulator(seed=seed, tracer=tracer if traced else None))
            res.metric(f"{name}/{size}B/latency_us", p.latency_us,
                       unit="us")
            if name != "direct":
                res.metric(f"{name}/{size}B/post_us", p.post_time * 1e6,
                           unit="us")
    row = points[small]
    res.invariant(f"engine-all-beats-direct-{small}B", inv.faster_than(
        row["engine-all"].latency, row["direct"].latency,
        "engine-all", "direct"))
    res.invariant("engine-baseline-matches-direct", inv.within(
        inv.relative_error(row["engine-baseline"].latency,
                           row["direct"].latency),
        0.0, 0.001, "baseline vs direct latency rel err"))
    res.invariant("warp-parallelism-helps", inv.faster_than(
        row["engine-warp"].post_time, row["engine-baseline"].post_time,
        "warp post", "baseline post"))
    recon = reconcile_with_point(tracer, row["engine-all"], iterations)
    res.verdicts += [inv.reconciles(f"span-reconcile-{phase}", r["traced"],
                                    r["expected"])
                     for phase, r in recon["phases"].items()]
    res.runs["points"] = points
    return res


def counter_verdicts(nic, stats: EngineStats, metrics) -> List[Verdict]:
    """Engine stats vs the NIC's hardware counters vs the span trace's
    metric counters: each pair counts the same doorbells or descriptors,
    so each must match exactly."""
    return [
        inv.counts_match("nic-doorbell-counter", nic.batch_doorbells,
                         stats.batches),
        inv.counts_match("nic-descriptor-counter", nic.batch_descriptors,
                         stats.wrs),
        inv.counts_match("trace-doorbell-counter",
                         metrics.counter("rma.batch_doorbells").value,
                         stats.batches),
        inv.counts_match("trace-wr-counter",
                         metrics.counter("rma.wr_triggers").value,
                         stats.wrs),
    ]


@_register("engine-rate",
           "Offload-engine 32-connection message rate vs hostControlled, "
           "with MMIO-coalescing accounting")
def engine_rate(connections: Sequence[int] = (32,),
                per_connection: int = 40, seed: int = 0) -> ScenarioResult:
    """Message rate per connection count of the ``hostControlled`` and
    ``blocks`` references and of every engine variant driven by one
    persistent proxy block, one fresh simulator each.  The checks read
    the largest count, whose all-on run is traced: its ``EngineStats`` must
    match the NIC's counters and the trace's, count for count."""
    res = ScenarioResult()
    top = max(connections)
    tracer = SpanTracer()
    rates: Dict[int, Dict[str, object]] = {}
    for n in connections:
        row = rates[n] = {}
        for name, method in (("hostControlled", RateMethod.HOST_CONTROLLED),
                             ("blocks", RateMethod.BLOCKS)):
            row[name] = measure_message_rate(method, n, per_connection,
                                             sim=Simulator(seed=seed))
            res.metric(f"{name}/{n}conn/mmsgs_per_s",
                       row[name].messages_per_s / 1e6, unit="M/s")
        for name, config in ENGINE_VARIANTS:
            traced = (name, n) == ("engine-all", top)
            stats, clusters = EngineStats(), []
            row[name] = measure_message_rate(
                config, n, per_connection,
                sim=Simulator(seed=seed, tracer=tracer if traced else None),
                stats=stats, on_setup=clusters.append)
            res.metric(f"{name}/{n}conn/mmsgs_per_s",
                       row[name].messages_per_s / 1e6, unit="M/s")
            res.metric(f"{name}/{n}conn/doorbell_mmio", stats.doorbells,
                       kind="count")
            res.metric(f"{name}/{n}conn/descriptors", stats.wrs,
                       kind="count")
            if traced:
                all_stats, nic, batch = (stats, clusters[0].a.nic,
                                         config.batch_size)
    res.invariant("engine-all-beats-host-controlled", inv.rate_at_least(
        rates[top]["engine-all"].messages_per_s,
        rates[top]["hostControlled"].messages_per_s,
        "engine-all msg/s", "hostControlled msg/s"))
    res.invariant("mmio-coalesced", inv.mmio_coalesced(
        all_stats.doorbells, all_stats.wrs, batch,
        all_stats.timeout_flushes, lanes=top))
    res.verdicts += counter_verdicts(nic, all_stats, tracer.metrics)
    res.runs.update(rates=rates, stats=all_stats, tracer=tracer)
    return res


# -- simulator throughput -------------------------------------------------------

@_register("sim-throughput",
           "Simulator work (deterministic event count) and wall-clock "
           "throughput for a reference run")
def sim_throughput() -> ScenarioResult:
    from ..telemetry import TelemetryPlane

    def timed(sim, plane=None):
        """The reference run on ``sim`` and its wall time, clocked from
        the end of set-up (where ``plane``, if any, starts sampling)."""
        t0 = []

        def on_setup(cluster):
            if plane is not None:
                plane.start()
            t0.append(time.perf_counter())

        point = measure_pingpong(ExtollMode.DIRECT, 64, sim=sim,
                                 on_setup=on_setup)
        return point, time.perf_counter() - t0[0]

    res = ScenarioResult()
    events, walls, walls_telemetry = [], [], []
    bare = inst = plane = None
    # Bare and instrumented reps interleave so machine drift hits both
    # sides equally; the overhead metric compares best against best.
    for _rep in range(5):
        sim = Simulator()
        bare, wall = timed(sim)
        walls.append(wall)
        events.append(sim.events_processed)

        # The same reference run under the live telemetry plane at its
        # default cadence: the sampler only reads model state, so the
        # measured point must be bit-identical, and the wall-clock cost
        # must stay small (recorded as an informational wallclock metric,
        # target < 5%).
        sim = Simulator()
        plane = TelemetryPlane(sim)
        inst, wall = timed(sim, plane)
        walls_telemetry.append(wall)
        plane.stop()
    res.metric("sim_events", events[0], kind="count", unit="events")
    res.verdicts.append(inv.identical(
        "deterministic-event-count", {"sim_events": events[:1] * len(events)},
        {"sim_events": events}))
    best = min(walls)
    res.metric("wall_s_best", best, kind="wallclock", unit="s")
    res.metric("wall_s_worst", max(walls), kind="wallclock", unit="s")
    res.metric("events_per_s_best", events[0] / best, kind="wallclock",
               unit="events/s")
    res.verdicts.append(inv.identical(
        "telemetry-non-perturbation",
        {"latency": bare.latency, "post_time": bare.post_time,
         "poll_time": bare.poll_time},
        {"latency": inst.latency, "post_time": inst.post_time,
         "poll_time": inst.poll_time}))
    res.metric("telemetry_samples", plane.sampler.ticks, kind="count",
               unit="samples")
    wall_telemetry = min(walls_telemetry)
    res.metric("wall_s_telemetry", wall_telemetry, kind="wallclock",
               unit="s")
    res.metric("telemetry_overhead_pct",
               100.0 * (wall_telemetry - best) / best, kind="wallclock",
               unit="%")
    return res


# -- service-scale workloads ------------------------------------------------------

#: Offered-load grid the workload scenarios sweep (fractions of the
#: closed-loop service rate) — small on purpose: three points bracket the
#: knee without turning a bench run into a campaign.
_WORKLOAD_FRACTIONS = (0.5, 0.9, 1.2)
_WORKLOAD_REQUESTS = 16


def _workload_scenario(workload: str, modes) -> ScenarioResult:
    from ..workloads import saturation_sweep

    res = ScenarioResult()
    sweeps = {}
    for mode in modes:
        sweep = saturation_sweep(workload, mode, nodes=4, size=256,
                                 requests=_WORKLOAD_REQUESTS,
                                 fractions=_WORKLOAD_FRACTIONS, seed=7)
        sweeps[mode] = sweep
        res.metric(f"{mode}/closed_p99_us", sweep.closed.p99 * 1e6,
                   unit="us")
        res.metric(f"{mode}/service_rate_per_s", sweep.base_rate, unit="/s")
        res.metric(f"{mode}/knee_per_s", sweep.knee, unit="/s")
        near = sweep.points[1]      # the 0.9x point
        res.metric(f"{mode}/open0.9_p99_us", near.p99 * 1e6, unit="us")
        res.metric(f"{mode}/open0.9_achieved_per_s", near.achieved,
                   unit="/s")
        res.invariant(f"{mode}/results-exact",
                      (sweep.closed.verified, "every rank's result exact "
                                              "vs host-side expectation"))
        res.invariant(f"{mode}/open-p99-above-closed", inv.at_most(
            sweep.closed.p99, near.p99, "closed-loop p99",
            "open-loop p99 at 0.9x saturation"))
        res.invariant(f"{mode}/keeps-up-below-knee",
                      (sweep.points[0].efficiency >= 0.95,
                       f"efficiency {sweep.points[0].efficiency:.3f} at "
                       f"0.5x saturation"))
        res.invariant(f"{mode}/saturates-past-service-rate",
                      (sweep.points[-1].efficiency < 1.0,
                       f"efficiency {sweep.points[-1].efficiency:.3f} at "
                       f"1.2x saturation"))
    # The committed baseline doubles as the saturation-curve artifact:
    # offered vs achieved per point, knee per mode.
    res.extra["saturation"] = {m: s.as_dict() for m, s in sweeps.items()}
    return res


@_register("workload-trainstep",
           "Data-parallel training step (ring all-reduce + overlap) under "
           "open-loop load: knee + tail vs control mode", quick=False)
def workload_trainstep() -> ScenarioResult:
    return _workload_scenario("trainstep", ("hostControlled", "engine"))


@_register("workload-moe",
           "MoE all-to-all dispatch/combine under open-loop load: knee + "
           "tail vs control mode", quick=False)
def workload_moe() -> ScenarioResult:
    return _workload_scenario("moe", ("hostControlled", "engine"))


@_register("workload-kvcache",
           "KV-cache prefill->decode handover under open-loop load: knee "
           "+ tail vs control mode", quick=False)
def workload_kvcache() -> ScenarioResult:
    return _workload_scenario("kvcache", ("hostControlled", "mpi"))


# -- scale-out fabrics ------------------------------------------------------------

def _fabric_run(kind: str, n: int, algorithm: str, elems_per_rank: int,
                iterations: int, seed: int, routing: str = "minimal",
                credits: Optional[int] = None, traced: bool = False):
    """One all-reduce on a fresh ``kind`` fabric of ``n`` hosts; returns
    the result and, when ``traced``, the causal tracer that watched it."""
    sim = Simulator(seed=seed)
    tracer = None
    if traced:
        tracer = SpanTracer(sim, categories=("causal",))
        sim.set_tracer(tracer)
    inst = instantiate(sim, build_topology(kind, n),
                       FabricConfig(credits=credits), routing=routing)
    return run_fabric(inst, algorithm, elems_per_rank=elems_per_rank,
                      iterations=iterations), tracer


@_register("fabric-allreduce",
           "16-node fat-tree/torus all-reduce: ring vs rh vs tree, "
           "bit-exact across schedules, step counts at closed form")
def fabric_allreduce(topologies: Sequence[str] = ("fat-tree", "torus"),
                     nodes: Sequence[int] = (16,),
                     algorithms: Sequence[str] = ("ring", "rh", "tree"),
                     elems_per_rank: int = 4, iterations: int = 3,
                     seed: int = 1,
                     routing: str = "minimal") -> ScenarioResult:
    """The topology x N x schedule all-reduce matrix, flow control off so
    the crossover numbers are clean.  The recursive-halving run of the
    first topology at the smallest N is traced: its critical paths must
    cover the measured times exactly."""
    # Reject an unsupported (topology, N) pair before any run starts.
    for kind in topologies:
        for n in nodes:
            build_topology(kind, n)
    res = ScenarioResult()
    results, tracer = [], None
    for kind in topologies:
        for n in nodes:
            for algorithm in algorithms:
                traced = (kind, n, algorithm) == (topologies[0], min(nodes),
                                                  "rh")
                r, trc = _fabric_run(kind, n, algorithm, elems_per_rank,
                                     iterations, seed, routing,
                                     traced=traced)
                if traced:
                    tracer, traced_result = trc, r
                results.append(r)
                res.metric(f"{kind}/N{n}/{algorithm}/p50_us",
                           r.p50_time * 1e6, unit="us")
                res.metric(f"{kind}/N{n}/{algorithm}/packets", r.packets,
                           kind="count")

    bad = [f"{r.topology}/N{r.n}/{r.algorithm}" for r in results
           if not r.correct]
    res.invariant("correct", (not bad,
                              "every rank matches the exact reduction"
                              if not bad else
                              f"wrong results: {', '.join(bad)}"))
    digests: Dict[Tuple[str, int], set] = {}
    for r in results:
        digests.setdefault((r.topology, r.n), set()).add(r.digest)
    bad = [f"{kind}/N{n}" for (kind, n), d in digests.items() if len(d) > 1]
    res.invariant("bit-exact-across-schedules", (
        not bad, f"identical bytes across algorithms at {len(digests)} "
                 f"(topology, N) points"
        if not bad else f"digests diverge: {', '.join(bad)}"))
    bad = [f"{r.topology}/N{r.n}/{r.algorithm} steps={r.steps} "
           f"want={expected_steps(r.algorithm, r.n)}" for r in results
           if r.steps != expected_steps(r.algorithm, r.n)
           or r.phases != expected_phases(r.algorithm, r.n)]
    res.invariant("steps-exact", (
        not bad, "measured step counts match every schedule's closed form"
        if not bad else "; ".join(bad)))
    # At the largest N, recursive halving must beat the ring on fat-tree
    # and torus: the crossover this subsystem exists for.  A grid without
    # either (dragonfly alone) makes no such claim.
    top = max(nodes)
    p50 = {(r.topology, r.algorithm): r.p50_time for r in results
           if r.n == top}
    details, ok = [], True
    for kind in topologies:
        if kind not in ("fat-tree", "torus"):
            continue
        ring, rh = p50.get((kind, "ring")), p50.get((kind, "rh"))
        if ring is None or rh is None:
            ok = False
            details.append(f"{kind}: missing ring/rh at N={top}")
            continue
        ok = ok and rh < ring
        details.append(f"{kind} N={top}: ring/rh = {ring / rh:.1f}x")
    if details:
        res.invariant("rh-beats-ring", (ok, "; ".join(details)))
    if tracer is None:
        res.invariant("trace-reconcile",
                      (False, f"no rh run on {topologies[0]} to trace"))
    else:
        rec = analyze_run(tracer).reconcile(traced_result.times)
        res.invariant("trace-reconcile",
                      (rec["ok"], f"max path error {rec['max_error']:.2e} "
                                  f"(exact rule)"))
    res.runs["results"] = results
    return res


def forced_congestion_blame(seed: int = 1, routing: str = "minimal",
                            ) -> Tuple[List[Verdict], float]:
    """The forced-congestion canary: a causally traced recursive-halving
    all-reduce on a 16-host dragonfly at ``credits=1``, whose critical
    paths must reconcile exactly and contain ``blocked-on-credit``
    segments.  Returns those two verdicts and that category's blame
    share (0..1).

    The canary runs recursive halving rather than the ring: with per-VC
    relay workers the ring's balanced neighbor traffic pipelines cleanly
    even at one credit (stalls resolve in zero time), while rh's
    long-range xor-partner exchanges converge on shared links and hold
    real credit waits on the critical path."""
    result, tracer = _fabric_run("dragonfly", 16, "rh", 64, 2, seed + 5,
                                 routing, credits=1, traced=True)
    analysis = analyze_run(tracer)
    rec = analysis.reconcile(result.times)
    share = analysis.blame_shares().get("blocked-on-credit", 0.0)
    return [
        Verdict("congested-paths-reconcile", rec["ok"],
                f"max path error {rec['max_error']:.2e} (exact rule)"),
        Verdict("critpath-blames-credit", share > 0,
                f"blocked-on-credit share {share * 100:.2f}% on a "
                f"congested halving/doubling exchange at credits=1"),
    ], share


@_register("fabric-congestion",
           "Credit backpressure: scarce-credit permutation stalls but "
           "completes, credits-off is bit-identical, critpath blames "
           "blocked-on-credit")
def fabric_congestion(topologies: Sequence[str] = ("fat-tree",),
                      seed: int = 1,
                      routing: str = "minimal") -> ScenarioResult:
    """Credit flow control on 16-host fabrics: a permutation at 2 credits
    per topology must stall and still drain; generous credits must leave
    a torus ring all-reduce bit-identical; the dragonfly congestion
    canary; and a UGAL dragonfly permutation must replay bit-identically
    on a fresh simulator."""
    res = ScenarioResult()
    n = 16
    perms = {}
    for kind in topologies:
        sim = Simulator(seed=seed)
        inst = instantiate(sim, build_topology(kind, n),
                           FabricConfig(credits=2), routing=routing)
        t = perms[kind] = run_permutation(inst, messages=6, payload=256,
                                          seed=seed)
        res.metric(f"{kind}/permutation/stalls", t.stalls, kind="count")
        res.metric(f"{kind}/permutation/time_us", t.time * 1e6, unit="us")
    res.invariant("permutation-completes", (
        all(t.completed and not t.deadlocked for t in perms.values()),
        f"{n} hosts at 2 credits: " + "; ".join(
            f"{kind}: {'ok' if t.completed and not t.deadlocked else 'WEDGED'}"
            for kind, t in perms.items())))
    res.invariant("credits-actually-stall", (
        all(t.stalls > 0 for t in perms.values()),
        "; ".join(f"{kind}: {t.stalls} credit stalls"
                  for kind, t in perms.items())))

    bare, generous = (_fabric_run("torus", n, "ring", 4, 3, seed,
                                  credits=credits)[0]
                      for credits in (None, 64))
    res.verdicts.append(inv.identical(
        "zero-cost-bit-identical",
        {"times": bare.times, "digest": bare.digest},
        {"times": generous.times, "digest": generous.digest}))

    blame, share = forced_congestion_blame(seed, routing)
    res.metric("blame/blocked_on_credit_pct", round(share * 100.0, 3),
               unit="%")
    res.verdicts += blame

    replays = []
    for _ in range(2):
        sim = Simulator(seed=seed + 3)
        inst = instantiate(sim, build_topology("dragonfly", 32),
                           FabricConfig(credits=4), routing=routing)
        inst.policy.mode = "ugal"
        t = run_permutation(inst, messages=6, payload=1024, seed=seed + 4)
        replays.append({"time": t.time, "stalls": t.stalls,
                        "link_packets": tuple(sorted(
                            inst.link_packets().items()))})
    res.verdicts.append(inv.identical("adaptive-replay-deterministic",
                                      *replays))
    return res


# -- MPI-shaped layer and triggered operations ----------------------------------

@_register("mpi-latency",
           "Tagged MPI ping-pong across the eager/rendezvous crossover, "
           "CPU-free control path")
def mpi_latency(iterations: int = 6, seed: int = 11) -> ScenarioResult:
    """Tagged ping-pong at half, at, just past and 8x the eager
    threshold, one fresh communicator per size."""
    res = ScenarioResult()
    config = MpiConfig()
    thr = config.eager_threshold
    pingpongs = [run_mpi_pingpong(size, iterations=iterations, warmup=2,
                                  seed=seed, config=config)
                 for size in (thr // 2, thr, thr + 1, 8 * thr)]
    for p in pingpongs:
        res.metric(f"{p.size}B/latency_us", p.point.latency_us, unit="us")
        res.metric(f"{p.size}B/rndv_sent", p.rndv_sent, kind="count")
        res.metric(f"{p.size}B/bar_mmio", p.bar_mmio, kind="count")
    res.invariant("zero-bar-mmio",
                  (all(p.bar_mmio == 0 for p in pingpongs),
                   f"BAR crossings by size: "
                   f"{ {p.size: p.bar_mmio for p in pingpongs} }"))
    eager = [p for p in pingpongs if p.size <= thr]
    rndv = [p for p in pingpongs if p.size > thr]
    res.invariant("eager-below-threshold", (
        all(p.rndv_sent == 0 and p.eager_sent > 0 for p in eager),
        ", ".join(f"{p.size}B went {p.protocol}" for p in eager)))
    res.invariant("rendezvous-above-threshold", (
        all(p.rndv_sent > 0 and p.eager_sent == 0 for p in rndv),
        ", ".join(f"{p.size}B went {p.protocol}" for p in rndv)))
    res.invariant("crossover-costs-a-roundtrip", inv.faster_than(
        eager[-1].point.latency, rndv[0].point.latency,
        f"eager {thr}B", f"rendezvous {thr + 1}B"))
    res.runs["pingpongs"] = pingpongs
    return res


@_register("mpi-allreduce",
           "Triggered-chain iallreduce vs all three host-assist control "
           "modes: MMIO at or below the engine-batched floor")
def mpi_allreduce(nodes: int = 4, size: int = 256, iterations: int = 4,
                  seed: int = 11, algorithm: str = "ring") -> ScenarioResult:
    """The traced triggered-chain iallreduce against the collectives
    stack's all-reduce in each control mode, same schedule, size and
    rounds."""
    res = ScenarioResult()
    tracer = SpanTracer()
    ar = run_mpi_allreduce(nodes, size, iterations=iterations, seed=seed,
                           tracer=tracer, algorithm=algorithm)
    res.metric("triggered/latency_us", ar.point.latency_us, unit="us")
    res.metric("triggered/chains_fired", ar.chains_fired, kind="count")
    res.metric("triggered/bar_mmio", ar.bar_mmio, kind="count")
    res.invariant("allreduce-exact",
                  (ar.correct, f"{nodes}-rank sums exact over "
                               f"{iterations} rounds"))
    res.invariant("triggered-zero-bar-mmio",
                  (ar.bar_mmio == 0,
                   f"{ar.bar_mmio} BAR crossings in the iallreduce"))
    res.invariant("reconciles-1pct",
                  (bool(ar.reconcile["ok"]),
                   "chains exact vs the schedule, spans vs LatencyPoint "
                   "within 1%"))
    modes = [run_mode_allreduce_mmio(mode, nodes, size,
                                     iterations=iterations, seed=seed,
                                     algorithm=algorithm)
             for mode in CollectiveMode]
    for m in modes:
        res.metric(f"{m['mode']}/latency_us", m["latency_us"], unit="us")
        res.metric(f"{m['mode']}/bar_mmio", m["bar_mmio"], kind="count")
        res.invariant(f"{m['mode']}/correct", (m["correct"], "sums exact"))
    floor, below_floor, above_floor = engine_floor_checks(ar.bar_mmio, modes)
    res.metric("engine_floor", floor, kind="count")
    res.invariant("triggered-at-or-below-engine-floor", below_floor)
    res.invariant("host-assist-above-floor", above_floor)
    res.runs.update(allreduce=ar, modes=modes, floor=floor, tracer=tracer)
    return res


@_register("triggered-relay",
           "Two-round ring relay staged as counter-fired chains vs host "
           "assist: zero BAR posts, one doorbell per node")
def triggered_relay(nodes: int = 4, size: int = 4096,
                    seed: int = 7) -> ScenarioResult:
    """The traced triggered relay on a ``nodes``-ring of ``size``-byte
    puts and its host-assist reference, same seed.  Each node's token is
    one distinct byte, so the relay runs on 2 to 255 nodes."""
    if not 2 <= nodes <= 255:
        raise BenchmarkError(f"--nodes must be in [2, 255] (a node's token "
                             f"is one distinct byte), got {nodes}")
    if size < 1:
        raise BenchmarkError(f"--size must be at least 1 byte, got {size}")
    res = ScenarioResult()
    tracer = SpanTracer()
    trig = run_triggered(nodes, size, seed, tracer=tracer)
    host = run_host_assist(nodes, size, seed)
    res.metric("triggered/elapsed_us", trig["elapsed_us"], unit="us")
    for key in ("host_wr_posts", "doorbells", "chains_completed",
                "chains_staged", "descriptors_fired", "counter_ticks"):
        res.metric(f"triggered/{key}", trig[key], kind="count")
    res.metric("host-assist/elapsed_us", host["elapsed_us"], unit="us")
    res.metric("host-assist/wr_posts", host["wr_posts"], kind="count")
    res.invariant("triggered-data", (
        bool(trig["data_ok"]), "both relay rounds delivered the right bytes"))
    res.invariant("host-assist-data", (
        bool(host["data_ok"]), "reference exchange delivered the right "
                               "bytes"))
    res.invariant("zero-host-wr-posts", (
        trig["host_wr_posts"] == 0,
        f"WR posts through the BAR after staging: {trig['host_wr_posts']}"))
    res.invariant("one-doorbell-per-node", (
        trig["doorbells"] == nodes,
        f"counter doorbells: {trig['doorbells']} (nodes: {nodes})"))
    res.invariant("all-chains-completed", (
        trig["chains_completed"] == trig["chains_staged"] == 2 * nodes,
        f"{trig['chains_completed']}/{trig['chains_staged']} chains "
        f"completed"))
    res.runs.update(triggered=trig, host_assist=host, tracer=tracer)
    return res
