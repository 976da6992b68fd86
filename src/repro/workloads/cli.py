"""``python -m repro workloads`` — open-loop service traffic over the grid.

For every selected (workload, control mode) cell the CLI runs a
closed-loop calibration (pure service time, zero queueing by
construction), then an open-loop run at ``--saturation`` of the measured
service rate with a :class:`~repro.telemetry.TelemetryPlane` armed:
request latencies land in live histograms, SLO monitors judge every
sampling window, and the flight recorder dumps on the first breach.

Proof obligations, runnable from CI:

* **open >= closed** — at ``--saturation`` of at least 0.8 the open-loop
  p99 must be at or above the closed-loop p99 (queueing delay exists and
  the closed loop cannot see it);
* **reconciliation** — the recorder's ``span.workload.request`` histogram
  must agree with the generator's exact latency list: count exactly, sum
  within 1%;
* **zero-cost** — one representative cell re-runs bare (no plane): the
  latency sequence must be bit-identical (telemetry observes, never
  perturbs);
* **replay** — the same cell re-runs with the same seed and must
  reproduce the latency sequence bit-identically;
* ``--force-breach`` arms an unsatisfiable objective so every cell
  breaches in its first window and produces a flight-recorder dump
  artifact under ``--out``.

Exit status: 0 on success, 1 on SLO breach (pipelines gate on it),
2 on a proof-obligation failure.
"""

from __future__ import annotations

import argparse
import json
from typing import List, Optional

from ..analysis.invariants import Verdict, identical, render, to_json
from ..sim import Simulator
from ..telemetry.export import write_artifacts
from ..telemetry.plane import add_plane_args, plane_from_args
from ..telemetry.slo import Objective
from .apps import WORKLOADS
from .generator import WorkloadRun, reconcile, saturation_sweep
from .transport import MODES

#: Default objectives: generous tails (the grid spans modes whose service
#: times differ 5x) plus a hard zero on wrong results.
_PRESETS = [
    Objective("request tail latency", "span.workload.request", "p99", "<",
              5e-3, unit="s", budget=0.25),
    Objective("no failed requests", "workload.failures", "total", "<=",
              0.0, budget=0.0),
]

def _fault_plan(args):
    if not args.loss:
        return None
    from ..faults.plan import FaultPlan
    return FaultPlan.uniform(loss=args.loss, corrupt=args.loss / 2,
                             seed=args.seed)


def _open_run(args, workload: str, mode: str, rate: float,
              sim: Optional[Simulator] = None) -> WorkloadRun:
    return WorkloadRun(
        workload, mode, nodes=args.nodes, size=args.size,
        requests=args.requests, loop="open", arrival=args.arrival,
        rate=rate, seed=args.seed, fault_plan=_fault_plan(args),
        reliable=bool(args.loss), sim=sim)


def _run_cell(args, workload: str, mode: str) -> dict:
    """One grid cell: closed calibration + instrumented open-loop run."""
    closed = WorkloadRun(
        workload, mode, nodes=args.nodes, size=args.size,
        requests=args.requests, loop="closed", seed=args.seed,
        fault_plan=_fault_plan(args), reliable=bool(args.loss)).execute()
    rate = args.saturation / closed.mean_service
    if args.no_telemetry:
        plane = None
        result = _open_run(args, workload, mode, rate).execute()
        recon = None
    else:
        sim = Simulator(seed=args.seed)
        plane = plane_from_args(sim, args, _PRESETS)
        run = _open_run(args, workload, mode, rate, sim=sim)
        plane.watch_workloads(run)
        plane.start()
        result = run.execute()
        plane.stop()
        recon = reconcile(result, plane.recorder)
    return {
        "workload": workload, "mode": mode, "rate": rate,
        "closed": closed.summary(), "open": result.summary(),
        "open_ge_closed": result.p99 >= closed.p99,
        "reconcile": recon,
        "slo": plane.verdicts() if plane is not None else [],
        "breached": plane.breached if plane is not None else False,
        "dumps": plane.dumps if plane is not None else [],
    }


def _replay_checks(args, workload: str, mode: str, rate: float,
                   ) -> List[Verdict]:
    """Same-seed open-loop replay, and (with telemetry) the instrumented
    run against a bare one: both must be bit-identical."""
    def outputs(run: WorkloadRun) -> dict:
        result = run.execute()
        return {"latencies": result.latencies,
                "last_completion": result.last_completion}

    bare = outputs(_open_run(args, workload, mode, rate))
    verdicts = []
    if not args.no_telemetry:
        sim = Simulator(seed=args.seed)
        plane = plane_from_args(sim, args, _PRESETS)
        run = _open_run(args, workload, mode, rate, sim=sim)
        plane.watch_workloads(run)
        plane.start()
        instrumented = outputs(run)
        plane.stop()
        verdicts.append(identical("zero-cost when disarmed", bare,
                                  instrumented))
    verdicts.append(identical("deterministic replay", bare,
                              outputs(_open_run(args, workload, mode, rate))))
    return verdicts


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:10.2f}us"


def _render_cells(cells: List[dict]) -> str:
    header = ("workload".ljust(11) + "mode".ljust(17) + "loop".ljust(8)
              + "rate/s".rjust(10) + "p50".rjust(12) + "p99".rjust(12)
              + "p999".rjust(12) + "  ok")
    lines = [header, "-" * len(header)]
    for cell in cells:
        for loop in ("closed", "open"):
            row = cell[loop]
            rate = "-" if loop == "closed" else f"{cell['rate']:,.0f}"
            lines.append(
                cell["workload"].ljust(11) + cell["mode"].ljust(17)
                + loop.ljust(8) + rate.rjust(10)
                + _fmt_us(row["p50"]).rjust(12)
                + _fmt_us(row["p99"]).rjust(12)
                + _fmt_us(row["p999"]).rjust(12)
                + ("   OK" if row["verified"] else "   FAIL"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro workloads",
        description="Open-loop service traffic: application workloads x "
                    "control modes, tail latency vs SLOs.")
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS), metavar="NAME",
                        help=f"restrict to one workload (repeatable; "
                             f"choices: {', '.join(sorted(WORKLOADS))})")
    parser.add_argument("--mode", action="append", choices=MODES,
                        metavar="NAME",
                        help=f"restrict to one control mode (repeatable; "
                             f"choices: {', '.join(MODES)})")
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI")
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--size", type=int, default=256,
                        help="payload bytes per message (default: 256)")
    parser.add_argument("--requests", type=int, default=None,
                        help="requests per run (default: 32, quick: 10)")
    parser.add_argument("--arrival", default="poisson",
                        choices=("poisson", "bursty"))
    parser.add_argument("--saturation", type=float, default=0.85,
                        help="open-loop offered load as a fraction of the "
                             "closed-loop service rate (default: 0.85)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="per-packet loss probability (arms reliable "
                             "channels and the fault injector)")
    add_plane_args(parser, interval=20e-6)
    parser.add_argument("--knee", action="store_true",
                        help="additionally sweep offered load on the first "
                             "cell and report the saturation knee")
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON document instead of "
                             "tables")
    args = parser.parse_args(argv)
    args.requests = args.requests or (10 if args.quick else 32)
    workloads = args.workload or sorted(WORKLOADS)
    modes = args.mode or list(MODES)

    cells = []
    verdicts: List[Verdict] = []
    for workload in workloads:
        for mode in modes:
            cells.append(_run_cell(args, workload, mode))
    rep_wl, rep_mode = workloads[0], modes[0]
    verdicts += _replay_checks(args, rep_wl, rep_mode, cells[0]["rate"])
    knee = None
    if args.knee:
        knee = saturation_sweep(
            rep_wl, rep_mode, nodes=args.nodes, size=args.size,
            requests=args.requests, arrival=args.arrival,
            seed=args.seed, fault_plan=_fault_plan(args),
            reliable=bool(args.loss)).as_dict()

    # -- grid-wide proof obligations ---------------------------------------------
    bad_verify = [f"{c['workload']}/{c['mode']}" for c in cells
                  if not (c["closed"]["verified"] and c["open"]["verified"])]
    verdicts.append(Verdict(
        "all results exact", not bad_verify,
        f"{2 * len(cells)} runs verified rank-by-rank against host-side "
        f"expectations" if not bad_verify
        else f"wrong results in: {', '.join(bad_verify)}"))
    # Under injected loss the service time itself is stochastic (one
    # retransmission storm in the closed calibration can outweigh the
    # open loop's queueing), so the tail-gap verdict is only a theorem on
    # clean links.
    if args.saturation >= 0.8 and not args.loss:
        bad_gap = [f"{c['workload']}/{c['mode']}" for c in cells
                   if not c["open_ge_closed"]]
        verdicts.append(Verdict(
            "open-loop p99 >= closed-loop p99", not bad_gap,
            f"queueing delay visible in every cell at "
            f"{args.saturation:.0%} saturation" if not bad_gap
            else f"no queueing gap in: {', '.join(bad_gap)}"))
    if not args.no_telemetry:
        bad_recon = [f"{c['workload']}/{c['mode']}" for c in cells
                     if not (c["reconcile"] and c["reconcile"]["ok"])]
        verdicts.append(Verdict(
            "trace<->histogram reconciliation <= 1%", not bad_recon,
            "recorder histograms match the exact latency lists on count "
            "and sum" if not bad_recon
            else f"mismatch in: {', '.join(bad_recon)}"))

    breached = any(c["breached"] for c in cells)
    all_ok = all(v.ok for v in verdicts)

    doc = {
        "nodes": args.nodes, "size": args.size, "requests": args.requests,
        "arrival": args.arrival, "saturation": args.saturation,
        "seed": args.seed, "loss": args.loss,
        "cells": [{k: v for k, v in c.items() if k != "dumps"}
                  for c in cells],
        "verdicts": to_json(verdicts),
        "breached": breached,
        "ok": all_ok,
    }
    if args.knee:
        doc["knee"] = knee

    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.json:
        print(text)
    else:
        print(_render_cells(cells))
        print()
        print(render(verdicts))
        if args.knee and knee is not None:
            print()
            print(f"saturation knee ({rep_wl}/{rep_mode}): "
                  f"{knee['knee']:,.0f} req/s "
                  f"(service rate {knee['base_rate']:,.0f} req/s)")
            for p in knee["points"]:
                print(f"  offered {p['offered']:10,.0f}/s -> achieved "
                      f"{p['achieved']:10,.0f}/s (eff {p['efficiency']:.2f})"
                      f"  p99 {p['p99'] * 1e6:9.2f}us")
        if breached:
            print("\nSLO BREACH in at least one cell "
                  "(see --json or --out for verdict details)")

    if args.out:
        count = write_artifacts(
            args.out, (dump for cell in cells for dump in cell["dumps"]),
            text)
        if not args.json:
            print(f"\nartifacts written to {args.out}/ "
                  f"({count} flight dump(s))")

    if not all_ok:
        return 2
    return 1 if breached else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
