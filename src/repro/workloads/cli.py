"""``python -m repro workloads`` — open-loop service traffic over the grid.

Runs the ``workload_service`` scenario (:mod:`repro.perf.scenarios`, the
function the three ``workload-*`` baselines pin) on this command's grid.
Every selected (workload, control mode) cell gets a closed-loop
calibration (pure service time, zero queueing by construction), then one
open-loop run per ``--saturation`` fraction of the measured service
rate, each under a :class:`~repro.telemetry.TelemetryPlane`: request
latencies land in live histograms, SLO objectives judge every sampling
window, and the flight recorder dumps on the first breach.  The table
holds each cell's closed row and one open row per fraction; with more
than one fraction, each cell's saturation knee follows the verdicts.
``--force-breach`` arms an unsatisfiable objective so every open run
breaches in its first window and leaves a flight-recorder dump under
``--out``.

Exit status: 0 on success, 1 on SLO breach (pipelines gate on it),
2 on a failed verdict.
"""

from __future__ import annotations

import argparse
import json
from typing import List

from ..analysis.invariants import render, to_json
from ..cliargs import csv_list
from ..perf.scenarios import WORKLOAD_OBJECTIVES, workload_service
from ..telemetry.export import write_artifacts
from ..telemetry.plane import add_plane_args, objectives_from_args
from .apps import WORKLOADS
from .transport import MODES


def _fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:10.2f}us"


def _render_cells(cells: List[dict]) -> str:
    header = ("workload".ljust(11) + "mode".ljust(17) + "loop".ljust(8)
              + "rate/s".rjust(10) + "p50".rjust(12) + "p99".rjust(12)
              + "p999".rjust(12) + "  ok")
    lines = [header, "-" * len(header)]
    for cell in cells:
        rows = [("closed", "-", cell["closed"])] + [
            ("open", f"{o['rate']:,.0f}", o["result"]) for o in cell["open"]]
        for loop, rate, run in rows:
            lines.append(
                cell["workload"].ljust(11) + cell["mode"].ljust(17)
                + loop.ljust(8) + rate.rjust(10)
                + _fmt_us(run.p50).rjust(12)
                + _fmt_us(run.p99).rjust(12)
                + _fmt_us(run.p999).rjust(12)
                + ("   OK" if run.verified else "   FAIL"))
    return "\n".join(lines)


def _render_knees(cells: List[dict]) -> str:
    lines = []
    for cell in cells:
        lines.append(f"saturation knee ({cell['workload']}/{cell['mode']}): "
                     f"{cell['knee']:,.0f} req/s "
                     f"(service rate {cell['service_rate']:,.0f} req/s)")
        for o in cell["open"]:
            run = o["result"]
            lines.append(f"  offered {o['rate']:10,.0f}/s -> achieved "
                         f"{run.achieved_rate:10,.0f}/s (eff "
                         f"{run.efficiency:.2f})  p99 {run.p99 * 1e6:9.2f}us")
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
    parser.add_argument("--saturation", default="0.85",
                        type=csv_list(float),
                        help="comma-separated open-loop offered loads, as "
                             "fractions of the closed-loop service rate "
                             "(default: 0.85)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="per-packet loss probability (arms reliable "
                             "channels and the fault injector)")
    add_plane_args(parser, interval=20e-6)
    parser.add_argument("--json", action="store_true",
                        help="print the full JSON document instead of "
                             "tables")
    args = parser.parse_args(argv)
    if args.requests is None:
        args.requests = 10 if args.quick else 32

    result = workload_service(
        args.workload or sorted(WORKLOADS), args.mode or list(MODES),
        nodes=args.nodes, size=args.size, requests=args.requests,
        fractions=args.saturation, arrival=args.arrival, loss=args.loss,
        seed=args.seed,
        objectives=objectives_from_args(args, WORKLOAD_OBJECTIVES),
        interval=args.interval)
    cells = result.runs["cells"]
    planes = [o["plane"] for cell in cells for o in cell["open"]]
    breached = any(plane.breached for plane in planes)
    all_ok = all(v.ok for v in result.verdicts)

    doc = {
        "nodes": args.nodes, "size": args.size, "requests": args.requests,
        "arrival": args.arrival, "saturation": list(args.saturation),
        "seed": args.seed, "loss": args.loss,
        "cells": [{
            "workload": cell["workload"], "mode": cell["mode"],
            "closed": cell["closed"].summary(),
            "service_rate": cell["service_rate"], "knee": cell["knee"],
            "open": [{"fraction": o["fraction"], "rate": o["rate"],
                      "efficiency": o["result"].efficiency,
                      "result": o["result"].summary(),
                      "reconcile": o["reconcile"],
                      "slo": o["plane"].verdicts(),
                      "breached": o["plane"].breached}
                     for o in cell["open"]],
        } for cell in cells],
        "verdicts": to_json(result.verdicts),
        "breached": breached,
        "ok": all_ok,
    }

    text = json.dumps(doc, indent=1, sort_keys=True)
    if args.json:
        print(text)
    else:
        print(_render_cells(cells))
        print()
        print(render(result.verdicts))
        if len(args.saturation) > 1:
            print()
            print(_render_knees(cells))
        if breached:
            print("\nSLO BREACH in at least one cell "
                  "(see --json or --out for verdict details)")

    if args.out:
        count = write_artifacts(
            args.out, (dump for plane in planes for dump in plane.dumps),
            text)
        if not args.json:
            print(f"\nartifacts written to {args.out}/ "
                  f"({count} flight dump(s))")

    if not all_ok:
        return 2
    return 1 if breached else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
