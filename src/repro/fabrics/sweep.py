"""The fabrics acceptance sweep: crossover tables + verdicts.

``python -m repro fabrics`` drives this.  One sweep runs every requested
(topology x N x algorithm) all-reduce, then a battery of acceptance
checks:

* **bit-exact** — all algorithms produce byte-identical reduction
  results at every (topology, N) on the same seed,
* **steps-exact** — measured max per-rank sends match each schedule's
  closed form (``2(N-1)`` ring, ``2 log2 N`` halving, ``log2 N`` tree),
* **crossover** — at the largest N, recursive halving beats the ring on
  fat-tree and torus (the reason this subsystem exists),
* **zero-cost** — enabling generous credits changes nothing,
  bit-identically, on an uncongested run,
* **deadlock-free** — full permutation traffic completes under tiny
  credits on every topology (VC schemes hold),
* **replay** — an adaptive (UGAL) dragonfly run repeats bit-identically
  from the same seed,
* **trace-reconcile** — a causally-traced run's critical paths cover the
  measured times exactly (the critical-path 0% rule), and a forced-
  congestion run shows ``blocked-on-credit`` in the blame partition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..analysis.invariants import Verdict, identical, render, to_json
from ..collectives.algorithms import expected_phases, expected_steps
from ..sim import Simulator
from .collective import CollectiveResult, run_collective
from .topology import TOPOLOGY_KINDS, FabricConfig, build_topology
from .traffic import run_permutation


@dataclass(frozen=True)
class SweepConfig:
    topologies: Tuple[str, ...] = TOPOLOGY_KINDS
    algorithms: Tuple[str, ...] = ("ring", "rh", "tree")
    nodes: Tuple[int, ...] = (64, 512)
    elems_per_rank: int = 4
    iterations: int = 3
    seed: int = 1
    routing: str = "minimal"            # dragonfly inter-group policy
    #: Credits for the deadlock/congestion canaries (the timing runs stay
    #: flow-control-free so the crossover numbers are clean).
    canary_credits: int = 2
    canary_nodes: int = 16
    perm_messages: int = 6


@dataclass
class SweepReport:
    config: SweepConfig
    results: List[CollectiveResult] = field(default_factory=list)
    verdicts: List[Verdict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def result(self, topology: str, n: int,
               algorithm: str) -> Optional[CollectiveResult]:
        for r in self.results:
            if (r.topology, r.n, r.algorithm) == (topology, n, algorithm):
                return r
        return None

    def to_dict(self) -> dict:
        return {
            "config": {
                "topologies": list(self.config.topologies),
                "algorithms": list(self.config.algorithms),
                "nodes": list(self.config.nodes),
                "elems_per_rank": self.config.elems_per_rank,
                "iterations": self.config.iterations,
                "seed": self.config.seed,
                "routing": self.config.routing,
            },
            "results": [{
                "topology": r.topology, "n": r.n, "algorithm": r.algorithm,
                "p50_time_us": r.p50_time * 1e6,
                "p50_step_time_us": r.p50_step_time * 1e6,
                "steps": r.steps, "phases": r.phases, "packets": r.packets,
                "correct": r.correct, "events": r.events,
            } for r in self.results],
            "verdicts": to_json(self.verdicts),
            "ok": self.ok,
        }


def _run_one(cfg: SweepConfig, kind: str, n: int, algorithm: str,
             credits: Optional[int] = None,
             traced: bool = False):
    sim = Simulator(seed=cfg.seed)
    tracer = None
    if traced:
        from ..obs.tracer import SpanTracer
        tracer = SpanTracer(sim, categories=("causal",))
        sim.set_tracer(tracer)
    topo = build_topology(kind, n)
    inst = instantiate_for(sim, topo, cfg, credits)
    result = run_collective(inst, algorithm,
                            elems_per_rank=cfg.elems_per_rank,
                            iterations=cfg.iterations)
    return result, tracer


def instantiate_for(sim, topo, cfg: SweepConfig, credits: Optional[int]):
    from .routing import instantiate
    return instantiate(sim, topo, FabricConfig(credits=credits),
                       routing=cfg.routing)


def run_sweep(cfg: Optional[SweepConfig] = None,
              progress=None) -> SweepReport:
    cfg = cfg or SweepConfig()
    report = SweepReport(config=cfg)
    say = progress or (lambda _msg: None)
    # Reject an unsupported (topology, N) pair before any run starts.
    for kind in cfg.topologies:
        for n in cfg.nodes:
            build_topology(kind, n)

    # -- the timing matrix ---------------------------------------------------
    for kind in cfg.topologies:
        for n in cfg.nodes:
            for algorithm in cfg.algorithms:
                say(f"{kind} N={n} {algorithm} ...")
                result, _ = _run_one(cfg, kind, n, algorithm)
                report.results.append(result)

    # -- verdicts ------------------------------------------------------------
    report.verdicts.append(_verdict_correct(report))
    report.verdicts.append(_verdict_bit_exact(report))
    report.verdicts.append(_verdict_steps(report))
    report.verdicts.append(_verdict_crossover(report))
    say("zero-cost check ...")
    report.verdicts.append(_verdict_zero_cost(cfg))
    say("permutation deadlock canary ...")
    report.verdicts.append(_verdict_deadlock_free(cfg))
    say("adaptive replay determinism ...")
    report.verdicts.append(_verdict_replay(cfg))
    say("trace reconcile ...")
    report.verdicts.append(_verdict_trace(cfg))
    say("forced congestion blame ...")
    report.verdicts += forced_congestion_blame(cfg)[0]
    return report


# -- individual verdicts ---------------------------------------------------------------
def _verdict_correct(report: SweepReport) -> Verdict:
    bad = [f"{r.topology}/N{r.n}/{r.algorithm}" for r in report.results
           if not r.correct]
    return Verdict("numerics", not bad,
                   "every rank matches the exact reduction"
                   if not bad else f"wrong results: {', '.join(bad)}")


def _verdict_bit_exact(report: SweepReport) -> Verdict:
    bad = []
    combos = sorted({(r.topology, r.n) for r in report.results})
    for kind, n in combos:
        digests = {r.digest for r in report.results
                   if (r.topology, r.n) == (kind, n)}
        if len(digests) > 1:
            bad.append(f"{kind}/N{n}")
    return Verdict("bit-exact", not bad,
                   f"identical bytes across algorithms at "
                   f"{len(combos)} (topology, N) points"
                   if not bad else f"digests diverge: {', '.join(bad)}")


def _verdict_steps(report: SweepReport) -> Verdict:
    bad = []
    for r in report.results:
        want = expected_steps(r.algorithm, r.n)
        if r.steps != want or r.phases != expected_phases(r.algorithm, r.n):
            bad.append(f"{r.topology}/N{r.n}/{r.algorithm} "
                       f"steps={r.steps} want={want}")
    return Verdict("steps-exact", not bad,
                   "measured step counts match every schedule's closed form"
                   if not bad else "; ".join(bad))


def _verdict_crossover(report: SweepReport) -> Verdict:
    n = max(report.config.nodes)
    details, ok = [], True
    for kind in report.config.topologies:
        if kind == "dragonfly":
            continue                    # acceptance names fat-tree + torus
        ring = report.result(kind, n, "ring")
        rh = report.result(kind, n, "rh")
        if ring is None or rh is None:
            ok = False
            details.append(f"{kind}: missing ring/rh at N={n}")
            continue
        speedup = ring.p50_time / rh.p50_time
        if rh.p50_time >= ring.p50_time:
            ok = False
        details.append(f"{kind} N={n}: ring/rh = {speedup:.1f}x")
    return Verdict("ring->rh crossover", ok, "; ".join(details))


def _verdict_zero_cost(cfg: SweepConfig) -> Verdict:
    kind = cfg.topologies[0]
    n = min(cfg.nodes)
    disabled, enabled = (_run_one(cfg, kind, n, "rh", credits=credits)[0]
                         for credits in (None, 64))
    return identical("credits zero-cost", {"times": tuple(disabled.times)},
                     {"times": tuple(enabled.times)})


def _verdict_deadlock_free(cfg: SweepConfig) -> Verdict:
    details, ok = [], True
    for kind in cfg.topologies:
        sim = Simulator(seed=cfg.seed + 1)
        topo = build_topology(kind, cfg.canary_nodes)
        inst = instantiate_for(sim, topo, cfg, cfg.canary_credits)
        r = run_permutation(inst, messages=cfg.perm_messages,
                            payload=2048, seed=cfg.seed + 2)
        if not r.completed or r.deadlocked:
            ok = False
        details.append(f"{kind}: {'ok' if r.completed else 'WEDGED'} "
                       f"({r.stalls} stalls)")
    return Verdict("permutation deadlock-free", ok, "; ".join(details))


def _verdict_replay(cfg: SweepConfig) -> Verdict:
    runs = []
    for _ in range(2):
        sim = Simulator(seed=cfg.seed + 3)
        topo = build_topology("dragonfly", max(cfg.canary_nodes, 32))
        inst = instantiate_for(sim, topo, cfg, 4)
        inst.policy.mode = "ugal"
        r = run_permutation(inst, messages=cfg.perm_messages,
                            payload=1024, seed=cfg.seed + 4)
        runs.append({"time": r.time, "stalls": r.stalls,
                     "link_packets": tuple(sorted(
                         inst.link_packets().items()))})
    return identical("adaptive replay deterministic", *runs)


def _verdict_trace(cfg: SweepConfig) -> Verdict:
    from ..causal.critpath import analyze_run
    result, tracer = _run_one(cfg, cfg.topologies[0], min(cfg.nodes), "rh",
                              traced=True)
    rec = analyze_run(tracer).reconcile(result.times)
    return Verdict("trace reconcile", rec["ok"],
                   f"max path error {rec['max_error']:.2e} (exact rule)")


def forced_congestion_blame(cfg: Optional[SweepConfig] = None,
                            ) -> Tuple[List[Verdict], float]:
    """Run the forced-congestion canary: a congested traced all-reduce
    whose critical paths must reconcile exactly and contain
    ``blocked-on-credit`` segments.  Returns those two verdicts and that
    category's blame share (0..1).

    The canary runs recursive halving rather than the ring: with per-VC
    relay workers the ring's balanced neighbor traffic pipelines cleanly
    even at one credit (stalls resolve in zero time), while rh's
    long-range xor-partner exchanges converge on shared links and hold
    real credit waits on the critical path."""
    from ..causal.critpath import analyze_run
    from ..obs.tracer import SpanTracer
    cfg = cfg or SweepConfig()
    sim = Simulator(seed=cfg.seed + 5)
    tracer = SpanTracer(sim, categories=("causal",))
    sim.set_tracer(tracer)
    topo = build_topology(cfg.topologies[0], cfg.canary_nodes)
    inst = instantiate_for(sim, topo, cfg, 1)
    result = run_collective(inst, "rh", elems_per_rank=64, iterations=2)
    analysis = analyze_run(tracer)
    rec = analysis.reconcile(result.times)
    share = analysis.blame_shares().get("blocked-on-credit", 0.0)
    return [
        Verdict("congested paths reconcile", rec["ok"],
                f"max path error {rec['max_error']:.2e} (exact rule)"),
        Verdict("credit stalls on critical path", share > 0,
                f"blocked-on-credit share {share * 100:.2f}% on a "
                f"congested halving/doubling exchange at credits=1"),
    ], share


# -- rendering -------------------------------------------------------------------------
def render_report(report: SweepReport) -> str:
    lines: List[str] = []
    cfg = report.config
    title = (f"Fabric collectives sweep (elems/rank={cfg.elems_per_rank}, "
             f"{cfg.iterations} iterations, seed={cfg.seed})")
    lines += [title, "=" * len(title)]
    for kind in cfg.topologies:
        lines.append("")
        lines.append(f"{kind}: p50 all-reduce time (p50 per-phase time)")
        header = "N".rjust(6)
        for algorithm in cfg.algorithms:
            header += f"{algorithm}".rjust(22)
        lines.append(header)
        for n in cfg.nodes:
            row = f"{n}".rjust(6)
            for algorithm in cfg.algorithms:
                r = report.result(kind, n, algorithm)
                if r is None:
                    row += "-".rjust(22)
                else:
                    cell = (f"{r.p50_time * 1e6:9.1f}us "
                            f"({r.p50_step_time * 1e9:6.0f}ns)")
                    row += cell.rjust(22)
            lines.append(row)
    lines.append("")
    lines.append("Acceptance verdicts")
    lines.append("-------------------")
    lines.append(render(report.verdicts))
    return "\n".join(lines)


__all__ = ["SweepConfig", "SweepReport", "forced_congestion_blame",
           "render_report", "run_sweep"]
