"""The telemetry plane: one object that arms the whole live-metrics stack.

Construction wires the three pieces together on one simulator:

* a flight recorder — a ring-bounded :class:`~repro.obs.SpanTracer`
  installed as ``sim.tracer`` that keeps the newest ``recorder_capacity``
  spans/instants/flows of the :data:`DEFAULT_CATEGORIES`.  Its sink folds
  every completed span into a ``span.{category}.{name}`` histogram and
  counts every flow event as ``flow.{kind}``, so aggregates stay exact for
  the whole run while the rings stay bounded,
* a :class:`~repro.telemetry.Sampler` ticking on the event loop, watching
  the recorder's metrics registry out of the box (add model stats with
  :meth:`watch_stats` / :meth:`watch_counters` / :meth:`watch_gauge`),
* one :class:`~repro.telemetry.SloMonitor` per declared objective,
  evaluated live from the sampler's tick hook.

When something goes wrong the plane **trips**: a :data:`DEFAULT_TRIGGERS`
instant (retry exhaustion), an objective's FIRST breach, or an explicit
:meth:`trip` call.  Tripping snapshots the recorder into a *dump* — a
JSON-safe dict of the retained spans/instants/flows, the open spans and
the counters — the black box readout for the moments leading up to the
failure, at ring-buffer cost instead of full-trace cost.  Because the
retained spans are literally the tail of what an unbounded
:class:`~repro.obs.SpanTracer` records for the same seed, a dump matches a
full trace of the same run exactly (``monitor faults --reconcile``).

The zero-cost story mirrors :class:`~repro.sim.trace.NullTracer`: a
simulation that never constructs a plane keeps ``NULL_TRACER`` and pays
nothing — not an event, not a branch.  The plane is opt-in per run
(``python -m repro monitor``), never ambient.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Callable, Dict, Iterable, List, Optional

from ..obs.tracer import FlowRecord, InstantRecord, SpanRecord, SpanTracer
from ..sim import Simulator
from .sampler import Sampler
from .slo import Objective, SloMonitor, render_verdicts

#: Instant names that trip the flight recorder.
DEFAULT_TRIGGERS = ("retry-exhausted",)

#: What the flight recorder records: the API, phase, fault, wire and
#: kernel layers — every category EXCEPT the microscopic ones whose span
#: volume would both churn the rings uselessly and slow the run: per-TLP
#: ``pcie``, per-access ``gpu.sysmem``, per-descriptor ``dma``, and the
#: per-message polling layer (``gpu.spin``, ``rma.poll``, ``ib.poll``).
#: Their hot sites gate on :meth:`~repro.obs.SpanTracer.wants`, so
#: filtering skips even the argument construction.
DEFAULT_CATEGORIES = ("bench", "causal", "collective", "fault", "gpu.block",
                      "gpu.kernel", "ib", "ib.api", "mpi", "net", "phase",
                      "rel", "rma", "rma.api", "trig", "workload")

#: Samples in each SLO monitor's short burn-rate window.
SHORT_WINDOWS = 5

#: The objective ``--force-breach`` arms: the simulator always makes
#: progress, so the first sample window breaches it.
FORCE_BREACH = Objective("forced breach (sim always makes progress)",
                         "sim.events", "total", "<=", 0.0, budget=0.0)


class TelemetryPlane:
    """Live telemetry for one simulator: sampler + SLOs + flight recorder."""

    def __init__(self, sim: Simulator, interval: float = 5e-6,
                 capacity: int = 4096,
                 objectives: Iterable[Objective] = (),
                 recorder_capacity: int = 512) -> None:
        self.sim = sim
        self.recorder = SpanTracer(capacity=recorder_capacity,
                                   categories=DEFAULT_CATEGORIES,
                                   sink=self._observe)
        sim.set_tracer(self.recorder)
        self.sampler = Sampler(sim, interval=interval, capacity=capacity)
        self.sampler.watch_registry(self.recorder.metrics)
        self.monitors: List[SloMonitor] = [
            SloMonitor(o, SHORT_WINDOWS) for o in objectives]
        self.dumps: List[dict] = []
        self.trips: List[dict] = []
        self.sampler.on_tick.append(self._evaluate)

    # -- wiring ----------------------------------------------------------------
    def watch_stats(self, prefix: str, obj: object) -> None:
        self.sampler.watch_stats(prefix, obj)

    def watch_counters(self, prefix: str,
                       fn: Callable[[], Dict[str, float]]) -> None:
        self.sampler.watch_counters(prefix, fn)

    def watch_gauge(self, name: str, fn: Callable[[], float]) -> None:
        self.sampler.watch_gauge(name, fn)

    def watch_workloads(self, run) -> None:
        """The traffic generator's request accounting (→ ``workload.*``
        series; ``queue_depth`` and ``inflight`` as gauges) plus, for the
        engine control mode, the posting path's doorbell counters."""
        self.watch_stats("workload", run.stats)
        if getattr(run.transport, "engine_stats", None) is not None \
                and run.transport.mode == "engine":
            self.watch_stats("workload.engine", run.transport.engine_stats)

    def watch_fabrics(self, instance) -> None:
        """A scale-out fabric's congestion accounting (→ aggregate
        ``fabric.stalls`` / ``fabric.stall_time`` / ``fabric.bytes``
        series plus per-link ``fabric.link.{a}-{b}.bytes``, and a live
        ``fabric.in_flight`` gauge of credits currently held).  The
        counters come straight from every link's
        :class:`~repro.network.link.FlowState`, so a rising
        ``rate:fabric.stalls`` is credit backpressure, not a model
        artifact — the SLO hook the ``fabrics`` monitor preset binds."""
        links = sorted(instance.net.links().items())

        def read() -> Dict[str, float]:
            stats = instance.flow_stats()
            out = {"fabric.stalls": float(stats["stalls"]),
                   "fabric.stall_time": stats["stall_time"]}
            total = 0.0
            for (a, b), link in links:
                sent = float(sum(link.bytes_sent))
                out[f"fabric.link.{a}-{b}.bytes"] = sent
                total += sent
            out["fabric.bytes"] = total
            return out

        self.watch_counters("", read)
        self.watch_gauge("fabric.in_flight",
                         lambda: float(instance.flow_stats()["in_flight"]))

    def watch_fabric(self, fabric) -> None:
        """Per-link wire-byte counters (→ ``link.{a}-{b}.bytes`` series)."""
        links = sorted(fabric.links().items())

        def read() -> Dict[str, float]:
            return {f"link.{a}-{b}.bytes": sum(link.bytes_sent)
                    for (a, b), link in links}

        self.watch_counters("", read)

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()

    # -- live SLO evaluation ------------------------------------------------------
    def _evaluate(self, sampler: Sampler, t: float) -> None:
        for monitor in self.monitors:
            ok = monitor.observe(sampler, t)
            if ok is False and monitor.breaches == 1:
                # First breach of this objective: capture the black box.
                self.trip(f"slo:{monitor.objective.name}",
                          detail=monitor.verdict())

    # -- flight recorder -----------------------------------------------------------
    def _observe(self, record) -> None:
        """The recorder's sink: exact aggregates plus trip-on-fault."""
        metrics = self.recorder.metrics
        if isinstance(record, SpanRecord):
            metrics.histogram(
                f"span.{record.category}.{record.name}").observe(
                    record.duration)
        elif isinstance(record, InstantRecord):
            if record.name in DEFAULT_TRIGGERS:
                self.trip(f"{record.category}/{record.name}",
                          detail=dict(record.attrs))
        elif isinstance(record, FlowRecord):
            metrics.counter(f"flow.{record.kind}").inc()

    def trip(self, reason: str, detail: Optional[dict] = None) -> dict:
        """Snapshot the recorder into :attr:`dumps` and log the trip;
        returns the dump."""
        dump = self.dump(reason, detail)
        self.trips.append({"time": dump["time"], "reason": reason})
        self.dumps.append(dump)
        return dump

    def dump(self, reason: str = "manual",
             detail: Optional[dict] = None) -> dict:
        """JSON-safe snapshot of everything the recorder holds right now."""
        rec = self.recorder
        return {
            "reason": reason,
            "detail": detail or {},
            "time": rec.now(),
            "capacity": rec.capacity,
            "spans": [asdict(s) for s in rec.spans],
            "instants": [asdict(i) for i in rec.instants],
            "flows": [asdict(f) for f in rec.flows],
            "open_spans": [{"category": s.category, "name": s.name,
                            "track": s.track, "begin": s.begin}
                           for s in rec.open_spans()],
            "counters": rec.metrics.counter_values(),
        }

    @property
    def tripped(self) -> bool:
        return bool(self.trips)

    # -- reporting ----------------------------------------------------------------
    def verdicts(self) -> List[dict]:
        return [m.verdict() for m in self.monitors]

    @property
    def breached(self) -> bool:
        return any(v["status"] == "breach" for v in self.verdicts())

    def report(self) -> dict:
        return {
            "interval": self.sampler.interval,
            "ticks": self.sampler.ticks,
            "series": self.sampler.bank.names(),
            "histograms": self.sampler.histogram_names(),
            "objectives": self.verdicts(),
            "trips": list(self.trips),
            "dumps": len(self.dumps),
        }

    def render(self) -> str:
        lines = [f"telemetry: {self.sampler.ticks} samples @ "
                 f"{self.sampler.interval * 1e6:g}us, "
                 f"{len(self.sampler.bank)} series, "
                 f"{len(self.sampler.histogram_names())} histograms"]
        if self.monitors:
            lines.append("")
            lines.append(render_verdicts(self.verdicts()))
        if self.trips:
            lines.append("")
            lines.append("flight recorder trips:")
            for trip in self.trips:
                lines.append(f"  [{trip['time'] * 1e6:12.3f}us] "
                             f"{trip['reason']}")
        return "\n".join(lines)


def add_plane_args(parser, interval: float) -> None:
    """Declare the flags a monitoring subcommand shares: the ones
    :func:`objectives_from_args` reads, ``--interval`` (the sampling
    cadence, default ``interval``) and ``--out`` (the
    :func:`~repro.telemetry.export.write_artifacts` directory)."""
    parser.add_argument("--interval", type=float, default=interval,
                        help=f"sampling cadence in simulated seconds "
                             f"(default: {interval:g})")
    parser.add_argument("--slo", action="append", metavar="SPEC",
                        help="extra objective, e.g. "
                             "'p99:span.rma.wr-put<10e-6' or "
                             "'rate:engine.messages>=6e6' (repeatable)")
    parser.add_argument("--no-presets", action="store_true",
                        help="drop the built-in objectives")
    parser.add_argument("--force-breach", action="store_true",
                        help="arm an unsatisfiable objective (dump "
                             "artifact smoke test)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write slo-report.json, the flight dumps and "
                             "any other artifacts under DIR")


def objectives_from_args(args, presets: Iterable[Objective],
                         ) -> List[Objective]:
    """The objectives a monitoring subcommand arms from its flags:
    ``presets`` unless ``--no-presets``, then each ``--slo`` spec, then
    :data:`FORCE_BREACH` under ``--force-breach``."""
    objectives = [] if args.no_presets else list(presets)
    objectives += [Objective.parse(spec) for spec in args.slo or ()]
    if args.force_breach:
        objectives.append(FORCE_BREACH)
    return objectives
