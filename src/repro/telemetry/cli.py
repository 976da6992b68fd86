"""``python -m repro monitor`` — run a scenario under live telemetry.

Any of the repo's scenarios (``pingpong``/``rate``/``engine``/
``collectives``/``faults``) runs with a :class:`TelemetryPlane` armed:
the sampler ticks on the event loop, SLO monitors judge every window, and
the flight recorder stands by to dump on faults or breaches.  At the end
the CLI prints the series summary and the SLO verdict table; ``--out``
additionally writes the JSON time series, the Prometheus text snapshot,
and every flight-recorder dump.

Proof obligations, runnable from CI:

* ``--verify`` runs the scenario twice — bare and instrumented — and
  asserts the measured results are IDENTICAL (the sampler observes, it
  never perturbs).
* ``--force-breach`` arms an unsatisfiable objective so the first sample
  window breaches, trips the recorder, and produces a dump artifact.
* the ``faults`` scenario replays itself under a full
  :class:`~repro.obs.SpanTracer` and reconciles the flight-recorder dump's
  spans against the full trace (every retained span must appear there,
  bit-identical).

Exit status: 0 on success, 1 on SLO breach (so pipelines can gate),
2 on a verification failure.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import Optional, Tuple

from ..analysis.invariants import Verdict, counts_match, identical, render
from ..sim import Simulator
from .export import (render_series_table, write_artifacts,
                     write_prometheus, write_timeseries)
from .plane import TelemetryPlane, add_plane_args, objectives_from_args
from .slo import Objective

#: Conservative default objectives per scenario — thresholds sit well
#: outside the model's nominal envelope so a healthy run passes, and the
#: budget absorbs warm-up windows.
_PRESETS = {
    "pingpong": [
        Objective("put tail latency", "span.rma.wr-put", "p99", "<",
                  10e-6, unit="s", budget=0.2),
    ],
    "rate": [
        Objective("sustained put rate", "rma.puts", "rate", ">=",
                  1e5, unit="put/s", budget=0.25),
    ],
    "engine": [
        Objective("engine message rate", "engine.messages", "rate", ">=",
                  5e5, unit="msg/s", budget=0.25),
        Objective("doorbell amplification", "engine.doorbells", "rate", "<",
                  1e8, unit="mmio/s", budget=0.25),
        Objective("put tail latency", "span.rma.wr-put", "p99", "<",
                  10e-6, unit="s", budget=0.2),
    ],
    "collectives": [
        Objective("collective step tail", "span.phase.all-reduce", "p99",
                  "<", 1e-3, unit="s", budget=0.2),
    ],
    "faults": [
        Objective("no retransmissions", "rel.retransmits", "total", "<=",
                  0.0, unit="retx", budget=0.0),
        Objective("no link drops", "faults.drops", "total", "<=",
                  0.0, unit="drops", budget=0.0),
    ],
    "fabrics": [
        # Generous credits on the default run: stalls should be rare.
        # --credits 1 floods this objective on purpose (breach demo).
        Objective("fabric stall rate", "fabric.stalls", "rate", "<",
                  1e6, unit="stall/s", budget=0.25),
        Objective("fabric moves bytes", "fabric.bytes", "rate", ">",
                  0.0, unit="B/s", budget=0.25),
    ],
}


def _arm(plane: Optional[TelemetryPlane], **stats):
    """The ``on_setup(cluster)`` hook that arms ``plane`` on a wired model:
    it watches ``stats`` (prefix → stats object), then the cluster's
    links, then starts sampling.  None for a bare run."""
    if plane is None:
        return None

    def on_setup(cluster) -> None:
        for prefix, obj in stats.items():
            plane.watch_stats(prefix, obj)
        plane.watch_fabric(cluster.net)
        plane.start()
    return on_setup


# -- scenario runners -----------------------------------------------------------
# Each returns (headline, details) and leaves the plane (when given) with a
# finished sampling history.  All model wiring happens AFTER the plane is
# installed so every span/counter lands in the recorder.

def _run_pingpong(args, sim: Simulator, plane: Optional[TelemetryPlane],
                  ) -> Tuple[str, dict]:
    from ..core import ExtollMode, measure_pingpong
    point = measure_pingpong(ExtollMode.DIRECT, args.size, args.iterations,
                             args.warmup, sim=sim, on_setup=_arm(plane))
    return (f"pingpong dev2dev-direct {args.size}B: "
            f"{point.latency_us:.3f}us half round trip",
            {"latency": point.latency, "post_time": point.post_time,
             "poll_time": point.poll_time})


def _run_rate(args, sim: Simulator, plane: Optional[TelemetryPlane],
              ) -> Tuple[str, dict]:
    from ..core import RateMethod, measure_message_rate
    point = measure_message_rate(RateMethod.HOST_CONTROLLED,
                                 args.connections, args.per_connection,
                                 sim=sim, on_setup=_arm(plane))
    return (f"rate hostControlled x{args.connections}: "
            f"{point.messages_per_s / 1e6:.3f} M msg/s",
            {"messages_per_s": point.messages_per_s,
             "elapsed": point.elapsed})


def _run_engine(args, sim: Simulator, plane: Optional[TelemetryPlane],
                ) -> Tuple[str, dict]:
    from ..core import measure_message_rate
    from ..engine.engine import EngineConfig, EngineStats
    stats = EngineStats()
    point = measure_message_rate(EngineConfig.all_on(), args.connections,
                                 args.per_connection, sim=sim, stats=stats,
                                 on_setup=_arm(plane, engine=stats))
    return (f"engine all-on x{args.connections}: "
            f"{point.messages_per_s / 1e6:.3f} M msg/s "
            f"({stats.wrs} WRs, {stats.doorbells} doorbells)",
            {"messages_per_s": point.messages_per_s, "wrs": stats.wrs,
             "doorbells": stats.doorbells})


def _run_collectives(args, sim: Simulator, plane: Optional[TelemetryPlane],
                     ) -> Tuple[str, dict]:
    from ..collectives.bench import build_communicator, run_collective
    from ..collectives.comm import CollectiveMode
    cluster, comm = build_communicator(args.nodes, args.size,
                                       CollectiveMode.POLL_ON_GPU, sim=sim)
    if plane is not None:
        _arm(plane)(cluster)
    result = run_collective(cluster, comm, "all-reduce", args.size,
                            iterations=args.iterations, warmup=args.warmup)
    return (f"all-reduce N={args.nodes} {args.size}B: "
            f"{result.point.latency * 1e6:.3f}us/op "
            f"({'OK' if result.correct else 'WRONG RESULT'})",
            {"latency": result.point.latency, "correct": result.correct})


def _run_faults(args, sim: Simulator, plane: Optional[TelemetryPlane],
                ) -> Tuple[str, dict]:
    from ..analysis.faults import run_chaos_point
    from ..collectives.comm import CollectiveMode

    def on_setup(_sim, cluster, comm, injector) -> None:
        if plane is not None:
            _arm(plane, faults=injector, rel=comm)(cluster)

    point, _comm, _injector = run_chaos_point(
        CollectiveMode.POLL_ON_GPU, args.size, args.loss,
        corrupt=args.loss / 2, nodes=args.nodes,
        iterations=args.iterations, warmup=args.warmup,
        sim=sim, on_setup=on_setup)
    return (f"all-reduce under loss={args.loss:g}: "
            f"{point.latency_us:.3f}us/op, {point.retransmits} retx, "
            f"{point.drops} drops "
            f"({'OK' if point.correct else 'WRONG RESULT'})",
            {"latency": point.latency, "retransmits": point.retransmits,
             "drops": point.drops, "correct": point.correct})


def _run_fabrics(args, sim: Simulator, plane: Optional[TelemetryPlane],
                 ) -> Tuple[str, dict]:
    from ..fabrics import build_topology, instantiate
    from ..fabrics.collective import run_collective as run_fabric_collective
    from ..fabrics.topology import FabricConfig
    topo = build_topology("fat-tree", args.nodes)
    instance = instantiate(sim, topo,
                           FabricConfig(credits=args.credits))
    if plane is not None:
        plane.watch_fabrics(instance)
        plane.start()
    result = run_fabric_collective(instance, "rh",
                                   elems_per_rank=args.size // 8,
                                   iterations=args.iterations)
    stats = instance.flow_stats()
    return (f"fabric rh all-reduce N={instance.n} fat-tree "
            f"credits={args.credits}: {result.p50_time * 1e6:.3f}us/op, "
            f"{stats['stalls']:.0f} credit stalls "
            f"({'OK' if result.correct else 'WRONG RESULT'})",
            {"p50_time": result.p50_time, "correct": result.correct,
             "stalls": stats["stalls"],
             "stall_time": stats["stall_time"]})


_SCENARIOS = {
    "pingpong": _run_pingpong,
    "rate": _run_rate,
    "engine": _run_engine,
    "collectives": _run_collectives,
    "faults": _run_faults,
    "fabrics": _run_fabrics,
}


def _plane(args, sim: Simulator, scenario: str) -> TelemetryPlane:
    return TelemetryPlane(
        sim, interval=args.interval,
        objectives=objectives_from_args(args, _PRESETS.get(scenario, ())),
        capacity=args.capacity, recorder_capacity=args.recorder_capacity)


# -- proof obligations -------------------------------------------------------------

def _verify_non_perturbation(args, scenario: str) -> Verdict:
    """Run bare and instrumented with the same seed; the measured results
    must be IDENTICAL (telemetry reads, never writes)."""
    runner = _SCENARIOS[scenario]
    _, bare = runner(args, Simulator(seed=args.seed), None)
    sim = Simulator(seed=args.seed)
    plane = _plane(args, sim, scenario)
    _, instrumented = runner(args, sim, plane)
    plane.stop()
    return identical("non-perturbation", bare, instrumented)


def dump_reconciliation(dump: dict, spans) -> Verdict:
    """Every span a flight-recorder dump retained must appear,
    bit-identical, among ``spans`` (a full trace of the same seed)."""
    full = {(s.category, s.name, s.track, s.begin, s.end) for s in spans}
    retained = [(s["category"], s["name"], s["track"], s["begin"], s["end"])
                for s in dump["spans"]]
    found = sum(1 for key in retained if key in full)
    return counts_match("dump reconciliation", found, len(retained))


def _reconcile_faults_dump(args, dump: dict) -> Verdict:
    from ..analysis.faults import run_chaos_point
    from ..collectives.comm import CollectiveMode
    from ..obs.tracer import SpanTracer
    tracer = SpanTracer()
    run_chaos_point(CollectiveMode.POLL_ON_GPU, args.size, args.loss,
                    corrupt=args.loss / 2, nodes=args.nodes,
                    iterations=args.iterations, warmup=args.warmup,
                    seed=args.seed, tracer=tracer)
    return dump_reconciliation(dump, tracer.spans)


# -- entry point --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro monitor",
        description="Run a scenario under the live telemetry plane.")
    parser.add_argument("scenario", nargs="?", default="engine",
                        choices=sorted(_SCENARIOS),
                        help="which scenario to monitor (default: engine)")
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI")
    add_plane_args(parser, interval=5e-6)
    parser.add_argument("--no-telemetry", action="store_true",
                        help="run bare, with no plane (the zero-cost "
                             "reference)")
    parser.add_argument("--capacity", type=int, default=4096,
                        help="ring size of every time series")
    parser.add_argument("--recorder-capacity", type=int, default=512,
                        help="flight-recorder ring size (spans/instants)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", type=int, default=64,
                        help="message size in bytes")
    parser.add_argument("--connections", type=int, default=None,
                        help="rate/engine lanes (default: 8, quick: 4)")
    parser.add_argument("--per-connection", type=int, default=None,
                        help="messages per lane (default: 60, quick: 30)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="pingpong/collective iterations")
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--nodes", type=int, default=None,
                        help="cluster size (default: 4; fabrics: 8, and "
                             "its fat-tree needs a power of two >= 8)")
    parser.add_argument("--loss", type=float, default=0.05,
                        help="faults scenario per-packet drop probability")
    parser.add_argument("--credits", type=int, default=16,
                        help="fabrics scenario per-link VC credits; 1 "
                             "forces congestion (default: 16; fabrics "
                             "needs a power-of-two --nodes)")
    parser.add_argument("--verify", action="store_true",
                        help="assert bare and instrumented runs measure "
                             "identically (non-perturbation)")
    parser.add_argument("--reconcile", action="store_true",
                        help="faults only: reconcile the dump against a "
                             "full trace of the same seed")
    args = parser.parse_args(argv)
    if args.nodes is None:
        args.nodes = 8 if args.scenario == "fabrics" else 4
    if args.connections is None:
        args.connections = 4 if args.quick else 8
    if args.per_connection is None:
        args.per_connection = 30 if args.quick else 60
    if args.iterations is None:
        args.iterations = 4 if args.quick else 10

    runner = _SCENARIOS[args.scenario]

    if args.verify:
        verdict = _verify_non_perturbation(args, args.scenario)
        print(render([verdict]))
        if not verdict.ok:
            return 2

    sim = Simulator(seed=args.seed)
    plane = None if args.no_telemetry else _plane(args, sim, args.scenario)
    headline, _details = runner(args, sim, plane)
    if plane is not None:
        plane.stop()

    print(headline)
    print(f"simulated {sim.now * 1e6:.1f}us, "
          f"{sim.events_processed} events processed")
    if plane is None:
        return 0

    print()
    print(render_series_table(plane.sampler))
    print()
    print(plane.render())

    if args.reconcile and args.scenario == "faults" and plane.dumps:
        verdict = _reconcile_faults_dump(args, plane.dumps[0])
        print()
        print(render([verdict]))
        if not verdict.ok:
            return 2

    if args.out:
        count = write_artifacts(args.out, plane.dumps,
                                json.dumps(plane.report(), indent=1))
        write_timeseries(os.path.join(args.out, "timeseries.json"),
                         plane.sampler)
        write_prometheus(os.path.join(args.out, "metrics.prom"),
                         plane.sampler, plane.recorder.metrics)
        print(f"\nartifacts written to {args.out}/ "
              f"({count} flight dump(s))")

    return 1 if plane.breached else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
