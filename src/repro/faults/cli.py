"""``python -m repro faults`` — the chaos harness.

Sweeps loss rate x message size x control mode over an N-node collective
with the reliability engines armed: the ``faults-overhead`` scenario
(:mod:`repro.perf.scenarios`) on this command's grid, whose verdicts ask
that every point still computes the exact result, that latency and
goodput degrade monotonically with loss, that the highest loss rate was
really recovered from, that the fault layer is bit-for-bit free when idle
(``FaultPlan.none()``) and the reliability engines nearly free at zero
loss, and that a traced run's ``fault/retransmit`` instants match the
engines' counters exactly (the books balance).

Examples::

    python -m repro faults
    python -m repro faults --loss 0,0.01,0.05 --sizes 64,256 --mode all
    python -m repro faults --trace faults.json --loss 0.02
    python -m repro faults --quick        # CI smoke subset
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.faults import render_chaos
from ..analysis.invariants import render
from ..cliargs import csv_list
from ..collectives.bench import OPS
from ..collectives.comm import CollectiveMode, collective_mode
from ..obs.export import write_chrome_trace
from ..perf.scenarios import faults_overhead


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
                        help="write the Chrome trace of the traced point "
                             "(the first mode and size at the highest loss "
                             "rate; default path: faults-trace.json)")
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

    result = faults_overhead(
        modes=modes, sizes=sizes, losses=loss_rates, corrupt_ratio=0.5,
        nodes=nodes, op=args.op, iterations=iterations, warmup=warmup,
        seed=args.seed)
    print(f"{args.op} on {nodes} nodes, {iterations} iterations per point, "
          f"seed {args.seed}:")
    print(render_chaos(result.runs["points"]))
    if args.trace is not None:
        tracer = result.runs["tracer"]
        write_chrome_trace(tracer, args.trace)
        print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants "
              f"-> {args.trace}")

    print()
    print(render(result.verdicts))
    return 0 if all(v.ok for v in result.verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
