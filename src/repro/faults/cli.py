"""``python -m repro faults`` — the chaos harness.

Sweeps loss rate x message size x control mode over an N-node collective
with the reliability engines armed, and asserts three properties:

1. every point still computes the exact correct result (retransmission
   works under loss, corruption, and reordering),
2. a traced run's ``fault/retransmit`` instants match the engines'
   counters exactly (the books balance),
3. latency/goodput degrade monotonically with loss, and the fault layer is
   bit-for-bit free when idle (``FaultPlan.none()``).

Examples::

    python -m repro faults
    python -m repro faults --loss 0,0.01,0.05 --sizes 64,256 --mode all
    python -m repro faults --trace faults.json --loss 0.02
    python -m repro faults --quick        # CI smoke subset
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.faults import (
    chaos_sweep,
    monotonic_check,
    reconcile_retransmits,
    render_chaos,
    run_chaos_point,
    zero_cost_check,
)
from ..analysis.invariants import Verdict, counts_match, render
from ..cliargs import csv_list
from ..collectives.bench import OPS
from ..collectives.comm import CollectiveMode, collective_mode
from ..obs import SpanTracer
from ..obs.export import write_chrome_trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="Chaos sweeps: collectives under deterministic fault "
                    "injection, with retransmission armed.")
    parser.add_argument("--op", default="all-reduce", choices=OPS,
                        help="collective operation (default: all-reduce)")
    parser.add_argument("--nodes", type=int, default=4,
                        help="ring size (default: 4)")
    parser.add_argument("--loss", default="0,0.005,0.01,0.02",
                        type=csv_list(float),
                        help="comma-separated per-packet loss rates "
                             "(default: 0,0.005,0.01,0.02; corruption rides "
                             "along at half each rate)")
    parser.add_argument("--sizes", default="64,256", type=csv_list(int),
                        help="comma-separated payload bytes, multiples of 8 "
                             "(default: 64,256)")
    parser.add_argument("--mode", default="all",
                        choices=["all"] + [m.value for m in CollectiveMode],
                        help="control mode to sweep (default: all three)")
    parser.add_argument("--iterations", type=int, default=4,
                        help="measured rounds per point (default: 4)")
    parser.add_argument("--warmup", type=int, default=1,
                        help="warmup rounds per point (default: 1)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulator seed (default: 1)")
    parser.add_argument("--trace", nargs="?", const="faults-trace.json",
                        default=None, metavar="PATH",
                        help="additionally trace ONE faulted configuration "
                             "and write a Chrome trace "
                             "(default path: faults-trace.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small fixed sweep for CI smoke runs")
    args = parser.parse_args(argv)

    if args.quick:
        loss_rates, sizes = [0.0, 0.01], [64]
        modes = [CollectiveMode.POLL_ON_GPU, CollectiveMode.HOST_CONTROLLED]
        nodes, iterations, warmup = 3, 2, 1
    else:
        loss_rates, sizes = sorted(args.loss), args.sizes
        modes = (list(CollectiveMode) if args.mode == "all"
                 else [collective_mode(args.mode)])
        nodes, iterations, warmup = args.nodes, args.iterations, args.warmup
    if any(l < 0 or l >= 1 for l in loss_rates):
        parser.error("loss rates must be in [0, 1)")
    if 0.0 not in loss_rates:
        loss_rates = [0.0] + loss_rates   # degradation needs its baseline

    verdicts = []

    # 1. The grid: every point must still compute the right answer.
    points = chaos_sweep(loss_rates, sizes, modes, nodes=nodes, op=args.op,
                         iterations=iterations, warmup=warmup,
                         seed=args.seed)
    print(f"{args.op} on {nodes} nodes, {iterations} iterations per point, "
          f"seed {args.seed}:")
    print(render_chaos(points))
    bad = [p for p in points if not p.correct]
    verdicts.append(Verdict(
        "chaos results exact", not bad,
        f"{len(points) - len(bad)}/{len(points)} chaos points computed the "
        f"exact result"))

    # 2. Zero cost when idle: FaultPlan.none() must be bit-identical.
    zero_cost, _ = zero_cost_check(modes[0], sizes[0], nodes=nodes,
                                   op=args.op, iterations=iterations,
                                   warmup=warmup, seed=args.seed)
    verdicts.append(zero_cost)

    # 3. Monotonic degradation with loss.
    mono = monotonic_check(points)
    verdicts.append(Verdict(
        "monotonic degradation", mono["ok"],
        "; ".join(mono["violations"])
        or "latency and goodput never improve as loss grows"))

    # 4. Traced run: retransmit instants vs engine counters.
    if args.trace is not None:
        tracer = SpanTracer()
        trace_loss = max(loss_rates) or 0.01
        point, comm, _ = run_chaos_point(
            modes[0], sizes[0], trace_loss, corrupt=trace_loss / 2,
            nodes=nodes, op=args.op, iterations=iterations, warmup=warmup,
            seed=args.seed, tracer=tracer)
        write_chrome_trace(tracer, args.trace)
        recon = reconcile_retransmits(tracer, comm)
        verdicts.append(counts_match("retransmit reconcile",
                                     recon["traced"], recon["counted"]))
        verdicts.append(Verdict(
            "traced run exact", point.correct,
            f"all-reduce result at loss={trace_loss:g} "
            f"{'exact' if point.correct else 'WRONG'}"))
        print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants "
              f"-> {args.trace}")

    print()
    print(render(verdicts))
    return 0 if all(v.ok for v in verdicts) else 1

if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
