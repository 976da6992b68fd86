"""The canonical benchmark scenarios the regression harness tracks.

Each scenario is a deterministic, seconds-scale slice of one experiment
family — small enough for CI, large enough that a latency-model change
shows up in its metrics.  Scenario functions return a
:class:`~repro.perf.harness.ScenarioResult`; the harness handles baselines
and comparison.

Determinism contract: every ``sim``/``count`` metric must be bit-identical
across processes and machines (the simulator is seeded and ties are
sequence-broken), so baselines can live in git.  Anything host-dependent
must be recorded with ``kind="wallclock"``.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from ..analysis import invariants as inv
from ..analysis.faults import run_chaos_point, zero_cost_check
from ..cluster import build_extoll_cluster, build_ib_cluster
from ..collectives.bench import build_communicator, run_collective
from ..collectives.comm import CollectiveMode
from ..core import (
    ExtollMode,
    IbMode,
    run_extoll_bandwidth,
    run_extoll_pingpong,
    run_ib_pingpong,
    setup_extoll_connection,
    setup_ib_connection,
)
from ..sim import Simulator
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


def _extoll_point(mode: ExtollMode, size: int, iterations: int = 10,
                  warmup: int = 2):
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
    return run_extoll_pingpong(cluster, conn, mode, size,
                               iterations=iterations, warmup=warmup)


def _ib_point(mode: IbMode, size: int, iterations: int = 10,
              warmup: int = 2):
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, max(size, 4 * KIB), mode.ring_location)
    return run_ib_pingpong(cluster, conn, mode, size,
                           iterations=iterations, warmup=warmup)


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
            p = _extoll_point(mode, size)
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
            cluster = build_extoll_cluster()
            conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
            p = run_extoll_bandwidth(cluster, conn, mode, size, count=8)
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
            p = _extoll_point(mode, size)
            ratios[(label, size)] = p.poll_to_post_ratio
            res.metric(f"{label}/{size}B/poll_to_post_ratio",
                       p.poll_to_post_ratio, unit="x")
    res.invariant("fig3-sysmem-polling-dominates",
                  inv.sysmem_polling_dominates(ratios[("sysmem", 64)],
                                               ratios[("devmem", 64)]))
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
            p = _ib_point(mode, size)
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

@_register("collectives-allreduce",
           "4-node ring all-reduce over put/get, GPU- and host-controlled")
def collectives_allreduce() -> ScenarioResult:
    res = ScenarioResult()
    nodes, size = 4, 64
    for mode in (CollectiveMode.POLL_ON_GPU, CollectiveMode.HOST_CONTROLLED):
        cluster, comm = build_communicator(nodes, size, mode)
        r = run_collective(cluster, comm, "all-reduce", size,
                           iterations=4, warmup=1)
        res.metric(f"{mode.value}/latency_us", r.latency_us, unit="us")
        res.metric(f"{mode.value}/steps", r.steps, kind="count")
        res.invariant(f"{mode.value}/correct",
                      (r.correct, "every rank's result exact"))
        res.invariant(f"{mode.value}/ring-steps",
                      inv.ring_allreduce_steps(r.steps, nodes))
    # Documentary companion to the latency metrics: the causal layer's
    # exact critical-path composition of the same ring all-reduce, per
    # control mode — the blame table that says WHERE each mode's time
    # goes, not just how much there is.  Lives in ``extra`` (committed
    # with the baseline but never compared) because the shares move with
    # any latency-model change by design.
    from ..causal import analyze_run
    from ..obs.tracer import SpanTracer
    from ..workloads.apps import get_workload
    from ..workloads.generator import WorkloadRun
    from ..workloads.transport import MODES

    composition = {}
    for tmode in MODES:
        sim = Simulator(seed=0)
        tracer = SpanTracer(sim, categories=("causal", "workload"))
        sim.set_tracer(tracer)
        WorkloadRun(get_workload("allreduce"), tmode, nodes=nodes,
                    size=size, requests=1, loop="closed", seed=0,
                    sim=sim).execute()
        analysis = analyze_run(tracer)
        composition[tmode] = {
            "shares_pct": {cat: round(share * 100.0, 3)
                           for cat, share in
                           analysis.blame_shares().items()},
            "path_us": round(sum(p.total for p in analysis.paths) * 1e6,
                             3),
            "hops": sum(len(p.segments) for p in analysis.paths),
        }
    res.extra["critical_path_composition"] = composition
    return res


# -- faults ---------------------------------------------------------------------

@_register("faults-overhead",
           "Reliability cost at zero loss (must be ~free) and recovery "
           "under 5% packet loss")
def faults_overhead() -> ScenarioResult:
    res = ScenarioResult()
    zero_cost, bare_latency = zero_cost_check()
    res.invariant("zero-cost-bit-identical",
                  (zero_cost.ok, zero_cost.detail))
    clean, _, _ = run_chaos_point(CollectiveMode.POLL_ON_GPU, 64, loss=0.0)
    res.metric("reliable/zero-loss/latency_us", clean.latency_us, unit="us")
    res.metric("reliable/zero-loss/retransmits", clean.retransmits,
               kind="count")
    res.invariant("zero-loss-no-retransmits",
                  (clean.retransmits == 0,
                   f"{clean.retransmits} retransmits at loss=0"))
    res.invariant("reliability-overhead-bounded", inv.reliability_is_free(
        clean.latency, bare_latency, max_overhead=0.35))
    lossy, _, _ = run_chaos_point(CollectiveMode.POLL_ON_GPU, 64, loss=0.05)
    res.metric("reliable/5pct-loss/latency_us", lossy.latency_us, unit="us")
    res.metric("reliable/5pct-loss/retransmits", lossy.retransmits,
               kind="count")
    res.metric("reliable/5pct-loss/drops", lossy.drops, kind="count")
    res.invariant("correct-under-loss",
                  (lossy.correct, f"all-reduce result "
                                  f"{'exact' if lossy.correct else 'WRONG'} "
                                  f"at 5% loss ({lossy.drops} drops, "
                                  f"{lossy.retransmits} retransmits)"))
    res.invariant("loss-actually-recovered",
                  (lossy.retransmits > 0 and lossy.latency > clean.latency,
                   f"5% loss: {lossy.retransmits} retransmits, latency "
                   f"{clean.latency_us:.2f} -> {lossy.latency_us:.2f}us"))
    return res


# -- offload engine -------------------------------------------------------------

@_register("engine-latency",
           "Offload-engine ping-pong latency vs dev2dev-direct: baseline, "
           "warp-parallel, batched, all-on")
def engine_latency() -> ScenarioResult:
    from ..engine import EngineConfig, run_engine_pingpong

    res = ScenarioResult()
    variants = [("baseline", EngineConfig.baseline()),
                ("warp", EngineConfig.warp_only()),
                ("batch", EngineConfig.batch_only()),
                ("all", EngineConfig.all_on())]
    points = {}
    for size in (64, 4 * KIB):
        p = _extoll_point(ExtollMode.DIRECT, size)
        points[("direct", size)] = p
        res.metric(f"direct/{size}B/latency_us", p.latency_us, unit="us")
        for name, config in variants:
            cluster = build_extoll_cluster()
            conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
            p = run_engine_pingpong(cluster, conn, size, iterations=10,
                                    warmup=2, config=config)
            points[(name, size)] = p
            res.metric(f"engine-{name}/{size}B/latency_us", p.latency_us,
                       unit="us")
            res.metric(f"engine-{name}/{size}B/post_us", p.post_time * 1e6,
                       unit="us")
    res.invariant("engine-all-beats-direct-64B", inv.faster_than(
        points[("all", 64)].latency, points[("direct", 64)].latency,
        "engine-all", "direct"))
    res.invariant("engine-baseline-matches-direct", inv.within(
        inv.relative_error(points[("baseline", 64)].latency,
                           points[("direct", 64)].latency),
        0.0, 0.001, "baseline vs direct latency rel err"))
    res.invariant("warp-parallelism-helps", inv.faster_than(
        points[("warp", 64)].post_time, points[("baseline", 64)].post_time,
        "warp post", "baseline post"))
    return res


@_register("engine-rate",
           "Offload-engine 32-connection message rate vs hostControlled, "
           "with MMIO-coalescing accounting")
def engine_rate() -> ScenarioResult:
    from ..core.modes import RateMethod
    from ..core.message_rate import run_extoll_message_rate
    from ..core.setup import setup_extoll_connections
    from ..engine import EngineConfig, run_engine_message_rate

    res = ScenarioResult()
    connections, per_connection = 32, 40
    cluster = build_extoll_cluster()
    conns = setup_extoll_connections(cluster, 4 * KIB, connections)
    host = run_extoll_message_rate(cluster, conns, RateMethod.HOST_CONTROLLED,
                                   per_connection=per_connection)
    res.metric("hostControlled/mmsgs_per_s", host.messages_per_s / 1e6,
               unit="M/s")
    rates = {}
    for name, config in (("warp", EngineConfig.warp_only()),
                         ("all", EngineConfig.all_on())):
        cluster = build_extoll_cluster()
        conns = setup_extoll_connections(cluster, 4 * KIB, connections)
        point, stats = run_engine_message_rate(cluster, conns, config,
                                               per_connection=per_connection)
        rates[name] = point
        res.metric(f"engine-{name}/mmsgs_per_s", point.messages_per_s / 1e6,
                   unit="M/s")
        res.metric(f"engine-{name}/doorbell_mmio", stats.doorbells,
                   kind="count")
        res.metric(f"engine-{name}/descriptors", stats.wrs, kind="count")
        if name == "all":
            res.invariant("mmio-coalesced", inv.mmio_coalesced(
                stats.doorbells, stats.wrs, config.batch_size,
                stats.timeout_flushes, lanes=connections))
    res.invariant("engine-all-beats-host-controlled", inv.rate_at_least(
        rates["all"].messages_per_s, host.messages_per_s,
        "engine-all msg/s", "hostControlled msg/s"))
    return res


# -- simulator throughput -------------------------------------------------------

@_register("sim-throughput",
           "Simulator work (deterministic event count) and wall-clock "
           "throughput for a reference run")
def sim_throughput() -> ScenarioResult:
    from ..telemetry import TelemetryPlane

    res = ScenarioResult()
    events, walls, walls_telemetry = [], [], []
    bare = inst = plane = None
    # Bare and instrumented reps interleave so machine drift hits both
    # sides equally; the overhead metric compares best against best.
    for _rep in range(5):
        sim = Simulator()
        cluster = build_extoll_cluster(sim=sim)
        conn = setup_extoll_connection(cluster, 4 * KIB)
        t0 = time.perf_counter()
        bare = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64,
                                   iterations=30, warmup=3)
        walls.append(time.perf_counter() - t0)
        events.append(sim.events_processed)

        # The same reference run under the live telemetry plane at its
        # default cadence: the sampler only reads model state, so the
        # measured point must be bit-identical, and the wall-clock cost
        # must stay small (recorded as an informational wallclock metric,
        # target < 5%).
        sim = Simulator()
        plane = TelemetryPlane(sim)
        cluster = build_extoll_cluster(sim=sim)
        conn = setup_extoll_connection(cluster, 4 * KIB)
        plane.start()
        t0 = time.perf_counter()
        inst = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64,
                                   iterations=30, warmup=3)
        walls_telemetry.append(time.perf_counter() - t0)
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

@_register("fabric-allreduce",
           "16-node fat-tree/torus all-reduce: ring vs rh vs tree, "
           "bit-exact across schedules, step counts at closed form")
def fabric_allreduce() -> ScenarioResult:
    from ..fabrics import build_topology, instantiate
    from ..collectives.algorithms import expected_phases, expected_steps
    from ..fabrics.collective import run_collective as run_fabric

    res = ScenarioResult()
    n, elems = 16, 4
    for kind in ("fat-tree", "torus"):
        digests = set()
        times = {}
        for algorithm in ("ring", "rh", "tree"):
            sim = Simulator(seed=1)
            inst = instantiate(sim, build_topology(kind, n))
            r = run_fabric(inst, algorithm, elems_per_rank=elems,
                           iterations=3)
            digests.add(r.digest)
            times[algorithm] = r.p50_time
            res.metric(f"{kind}/{algorithm}/p50_us", r.p50_time * 1e6,
                       unit="us")
            res.metric(f"{kind}/{algorithm}/packets", r.packets,
                       kind="count")
            res.invariant(f"{kind}/{algorithm}/correct",
                          (r.correct, "sums exact vs reference"))
            res.invariant(
                f"{kind}/{algorithm}/steps-exact",
                (r.steps == expected_steps(algorithm, n)
                 and r.phases == expected_phases(algorithm, n),
                 f"steps {r.steps} (closed form "
                 f"{expected_steps(algorithm, n)}), phases {r.phases} "
                 f"(closed form {expected_phases(algorithm, n)})"))
        res.invariant(f"{kind}/bit-exact-across-schedules",
                      (len(digests) == 1,
                       f"{len(digests)} distinct result digests across "
                       f"ring/rh/tree"))
        res.invariant(f"{kind}/log-schedules-beat-ring", inv.faster_than(
            min(times["rh"], times["tree"]), times["ring"],
            "best log-depth schedule p50", "ring p50"))
    return res


@_register("fabric-congestion",
           "Credit backpressure: scarce-credit permutation stalls but "
           "completes, credits-off is bit-identical, critpath blames "
           "blocked-on-credit")
def fabric_congestion() -> ScenarioResult:
    from ..fabrics import build_topology, instantiate, run_permutation
    from ..fabrics.collective import run_collective as run_fabric
    from ..fabrics.sweep import SweepConfig, forced_congestion_blame
    from ..fabrics.topology import FabricConfig

    res = ScenarioResult()
    n = 16
    sim = Simulator(seed=1)
    inst = instantiate(sim, build_topology("fat-tree", n),
                       FabricConfig(credits=2))
    t = run_permutation(inst, messages=6, payload=256, seed=1)
    res.metric("permutation/stalls", t.stalls, kind="count")
    res.metric("permutation/time_us", t.time * 1e6, unit="us")
    res.invariant("permutation-completes",
                  (t.completed and not t.deadlocked,
                   f"{n}-host permutation at 2 credits: "
                   f"completed={t.completed} deadlocked={t.deadlocked}"))
    res.invariant("credits-actually-stall",
                  (t.stalls > 0, f"{t.stalls} credit stalls at 2 credits"))

    def ring_run(credits):
        s = Simulator(seed=1)
        i = instantiate(s, build_topology("torus", n),
                        FabricConfig(credits=credits))
        return run_fabric(i, "ring", elems_per_rank=4, iterations=3)

    bare, generous = ring_run(None), ring_run(64)
    res.verdicts.append(inv.identical(
        "zero-cost-bit-identical",
        {"times": bare.times, "digest": bare.digest},
        {"times": generous.times, "digest": generous.digest}))
    blame, share = forced_congestion_blame(SweepConfig())
    res.metric("blame/blocked_on_credit_pct", round(share * 100.0, 3),
               unit="%")
    res.invariant("critpath-blames-credit",
                  (all(v.ok for v in blame),
                   "; ".join(f"{v.name}: {v.detail}" for v in blame)))
    return res


# -- MPI-shaped layer (triggered operations) -------------------------------------

@_register("mpi-latency",
           "Tagged MPI ping-pong across the eager/rendezvous crossover, "
           "CPU-free control path")
def mpi_latency() -> ScenarioResult:
    from ..mpi.bench import run_mpi_pingpong
    from ..mpi.comm import MpiConfig

    res = ScenarioResult()
    config = MpiConfig()
    thr = config.eager_threshold
    points = {}
    for size in (thr // 2, thr, thr + 1, 8 * thr):
        p = run_mpi_pingpong(size, iterations=6, warmup=2, config=config)
        points[size] = p
        res.metric(f"{size}B/latency_us", p.point.latency_us, unit="us")
        res.metric(f"{size}B/rndv_sent", p.rndv_sent, kind="count")
        res.metric(f"{size}B/bar_mmio", p.bar_mmio, kind="count")
    res.invariant("zero-bar-mmio",
                  (all(p.bar_mmio == 0 for p in points.values()),
                   f"BAR crossings by size: "
                   f"{ {s: p.bar_mmio for s, p in points.items()} }"))
    res.invariant("eager-below-threshold",
                  (points[thr].rndv_sent == 0 and points[thr].eager_sent > 0,
                   f"{thr}B went {points[thr].protocol}"))
    res.invariant("rendezvous-above-threshold",
                  (points[thr + 1].rndv_sent > 0
                   and points[thr + 1].eager_sent == 0,
                   f"{thr + 1}B went {points[thr + 1].protocol}"))
    res.invariant("crossover-costs-a-roundtrip", inv.faster_than(
        points[thr].point.latency, points[thr + 1].point.latency,
        f"eager {thr}B", f"rendezvous {thr + 1}B"))
    return res


@_register("mpi-allreduce",
           "Triggered-chain iallreduce vs all three host-assist control "
           "modes: MMIO at or below the engine-batched floor")
def mpi_allreduce() -> ScenarioResult:
    from ..mpi.bench import (engine_floor_checks, run_mode_allreduce_mmio,
                             run_mpi_allreduce)
    from ..obs.tracer import SpanTracer

    res = ScenarioResult()
    nodes, size = 4, 256
    tracer = SpanTracer()
    ar = run_mpi_allreduce(nodes, size, iterations=4, warmup=1,
                           tracer=tracer)
    res.metric("triggered/latency_us", ar.point.latency_us, unit="us")
    res.metric("triggered/chains_fired", ar.chains_fired, kind="count")
    res.metric("triggered/bar_mmio", ar.bar_mmio, kind="count")
    res.invariant("allreduce-exact", (ar.correct, "sums exact vs reference"))
    res.invariant("reconciles-1pct",
                  (bool(ar.reconcile["ok"]),
                   "chains vs spans vs LatencyPoint within 1%"))
    modes = []
    for mode in (CollectiveMode.POLL_ON_GPU, CollectiveMode.DIRECT,
                 CollectiveMode.HOST_CONTROLLED):
        m = run_mode_allreduce_mmio(mode, nodes, size, iterations=4,
                                    warmup=1)
        modes.append(m)
        res.metric(f"{m['mode']}/latency_us", m["latency_us"], unit="us")
        res.metric(f"{m['mode']}/bar_mmio", m["bar_mmio"], kind="count")
        res.invariant(f"{m['mode']}/correct", (m["correct"], "sums exact"))
    floor, below_floor, above_floor = engine_floor_checks(ar.bar_mmio, modes)
    res.metric("engine_floor", floor, kind="count")
    res.invariant("triggered-at-or-below-engine-floor", below_floor)
    res.invariant("host-assist-above-floor", above_floor)
    return res
