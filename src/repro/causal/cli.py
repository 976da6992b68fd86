"""``python -m repro critpath`` — causal critical paths per request.

Scenarios::

    pingpong    2-node request/echo rounds, every control mode
    allreduce   N-node ring all-reduce, every control mode
    mpi         rendezvous-sized all-reduce on the triggered-MPI path only
    workloads   one app-suite workload (--workload) across control modes

Each (workload, mode) cell runs a closed-loop :class:`WorkloadRun` under
a causal-enabled :class:`~repro.obs.SpanTracer`, assembles the
happens-before DAG, extracts every request's critical path, and prints
blame tables plus the per-rank straggler view.  Gates, runnable from CI:

* ``--reconcile`` — every request's path must telescope to the measured
  service time at EXACTLY 0%% relative error, with a category partition
  residual within 1e-9 s.  Exit 2 on failure.
* ``--verify`` — re-run one identical cell with the tracing disarmed
  (:class:`~repro.sim.trace.NullTracer`): the latency/service/wait
  sequences must be bit-identical — causal tracing observes, never
  perturbs.  Exit 2 on divergence.
* ``--expect-straggler R`` — every request in every cell must name rank
  ``R`` the straggler (the forced-skew canary).  Exit 2 otherwise.

``--skew RANK:INSTR`` charges extra compute on one rank (pingpong /
allreduce workloads only: another workload, or a rank outside the run,
is an error); ``--out DIR`` writes one annotated Chrome trace and one
waterfall per cell.
"""

from __future__ import annotations

import argparse
import json
import os
from typing import List, Optional, Tuple

from ..analysis.invariants import Verdict, identical, render, to_json
from ..cliargs import csv_list
from ..errors import ReproError
from ..obs import SpanTracer
from ..sim import Simulator
from ..workloads.apps import get_workload
from ..workloads.generator import RunResult, WorkloadRun
from ..workloads.transport import MODES
from .critpath import RunAnalysis, analyze_run
from .export import (render_blame, render_slack, render_waterfall,
                     write_annotated_trace)

_US = 1e6

#: scenario -> (workload, nodes, size, modes).  The ``mpi`` scenario's
#: 256-byte messages sit past the 128-byte eager threshold, so its paths
#: traverse the full RTS/CTS/FIN rendezvous chain.
_SCENARIOS = {
    "pingpong": ("pingpong", 2, 64, MODES),
    "allreduce": ("allreduce", 4, 64, MODES),
    "mpi": ("allreduce", 4, 256, ("mpi",)),
    "workloads": (None, 4, 64, MODES),
}


def _parse_skew(spec: str) -> Tuple[int, int]:
    try:
        rank, instr = spec.split(":")
        return int(rank), int(instr)
    except ValueError:
        raise ReproError(f"--skew wants RANK:INSTR, got {spec!r}") from None


def _run_cell(workload, mode: str, nodes: int, size: int, requests: int,
              seed: int, traced: bool,
              ) -> Tuple[RunResult, Optional[SpanTracer]]:
    sim = Simulator(seed=seed)
    tracer = None
    if traced:
        tracer = SpanTracer(sim, categories=("causal", "workload"))
        sim.set_tracer(tracer)
    run = WorkloadRun(workload, mode, nodes=nodes, size=size,
                      requests=requests, loop="closed", seed=seed, sim=sim)
    return run.execute(), tracer


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro critpath",
        description="causal critical-path analysis across the put/get "
                    "stack")
    parser.add_argument("scenario", choices=sorted(_SCENARIOS))
    parser.add_argument("--modes", default=None,
                        type=csv_list(choices=MODES), help="comma-separated control modes (default: the "
                             "scenario's set)")
    parser.add_argument("--nodes", type=int, default=None)
    parser.add_argument("--size", type=int, default=None)
    parser.add_argument("--requests", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default="trainstep",
                        help="app workload for the 'workloads' scenario")
    parser.add_argument("--skew", default=None, metavar="RANK:INSTR",
                        help="charge extra compute on one rank (pingpong/"
                             "allreduce only)")
    parser.add_argument("--expect-straggler", type=int, default=None,
                        help="fail unless this rank is named straggler in "
                             "every request")
    parser.add_argument("--verify", action="store_true",
                        help="prove the disarmed run is bit-identical")
    parser.add_argument("--reconcile", action="store_true",
                        help="gate every path at exactly 0%% error")
    parser.add_argument("--waterfall", action="store_true",
                        help="print request 0's waterfall per cell")
    parser.add_argument("--out", default=None,
                        help="write annotated traces + waterfalls here")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    name, nodes, size, modes = _SCENARIOS[args.scenario]
    if args.scenario == "workloads":
        name = args.workload
    nodes = args.nodes if args.nodes is not None else nodes
    size = args.size if args.size is not None else size
    if args.modes:
        modes = args.modes
    knobs = {}
    if args.skew:
        rank, instr = _parse_skew(args.skew)
        if not 0 <= rank < nodes:
            raise ReproError(f"--skew rank {rank} is outside [0, {nodes})")
        knobs = {"skew_rank": rank, "skew_instr": instr}
    workload = get_workload(name, **knobs)

    report: dict = {"scenario": args.scenario, "workload": name,
                    "nodes": nodes, "size": size,
                    "requests": args.requests, "seed": args.seed,
                    "modes": {}}
    verdicts: List[Verdict] = []
    out_lines: List[str] = []

    for mode in modes:
        result, tracer = _run_cell(workload, mode, nodes, size,
                                   args.requests, args.seed, traced=True)
        analysis: RunAnalysis = analyze_run(tracer)
        recon = analysis.reconcile(result.service_times)
        cell = {
            "verified_results": result.verified,
            "blame_us": {c: v * _US for c, v in analysis.blame().items()},
            "blame_shares": analysis.blame_shares(),
            "reconcile": recon,
            "stragglers": {str(r): s
                           for r, s in analysis.stragglers().items()},
            "slack_us": {str(r): [v * _US for v in vals]
                         for r, vals in
                         analysis.slack_histograms().items()},
            "remote_wait_us": analysis.remote_wait() * _US,
            "hops": [len(p.segments) for p in analysis.paths],
        }
        paths = (f"{len(analysis.paths)} request(s), {sum(cell['hops'])} "
                 f"hops, max error {recon['max_error']:.1e}, partition "
                 f"residual <= {recon['max_residual']:.1e}s")

        if args.verify:
            bare, _ = _run_cell(workload, mode, nodes, size,
                                args.requests, args.seed, traced=False)
            outputs = ("latencies", "service_times", "waits")
            verdict = identical(f"{mode} disarmed replay",
                                {k: getattr(bare, k) for k in outputs},
                                {k: getattr(result, k) for k in outputs})
            cell["verify_bit_identical"] = verdict.ok
            verdicts.append(verdict)
        if args.reconcile:
            verdicts.append(Verdict(f"{mode} reconcile", recon["ok"],
                                    f"exact 0% rule over {paths}"))
        verdicts.append(Verdict(f"{mode} results verified", result.verified,
                                "workload results exact on every rank"))
        if args.expect_straggler is not None:
            wrong = {r: s for r, s in analysis.stragglers().items()
                     if s != args.expect_straggler}
            verdicts.append(Verdict(
                f"{mode} straggler", not wrong,
                f"expected rank {args.expect_straggler} in every request"
                + (f", got {wrong}" if wrong else "")))

        report["modes"][mode] = cell

        title = (f"{args.scenario}/{name} mode={mode} N={nodes} "
                 f"size={size}B x{args.requests}")
        out_lines.append(title)
        out_lines.append("=" * len(title))
        total = sum(p.total for p in analysis.paths)
        out_lines.append(render_blame(analysis.blame(), total))
        out_lines.append(render_slack(analysis))
        out_lines.append(f"critical paths: {paths}")
        if args.waterfall:
            out_lines.append("")
            out_lines.append(render_waterfall(
                analysis.paths[0],
                title=f"critical path: request 0 ({mode})"))
        out_lines.append("")

        if args.out:
            base = os.path.join(args.out,
                                f"critpath-{args.scenario}-{mode}")
            write_annotated_trace(tracer, analysis, base + ".json")
            os.makedirs(args.out, exist_ok=True)
            with open(base + ".txt", "w", encoding="utf-8") as fh:
                for path in analysis.paths:
                    fh.write(render_waterfall(path) + "\n\n")

    if args.as_json:
        report["verdicts"] = to_json(verdicts)
        print(json.dumps(report, indent=2, default=str))
    else:
        out_lines.append(render(verdicts))
        print("\n".join(out_lines))
    return 0 if all(v.ok for v in verdicts) else 2


__all__ = ["main"]
