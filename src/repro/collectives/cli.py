"""``python -m repro collectives`` — scaling sweeps and traced runs.

Sweeps operation x node count x message size in one control mode and
prints the latency/bandwidth/step table: the ``collectives-allreduce``
scenario (:mod:`repro.perf.scenarios`) on this command's grid, whose
verdicts ask that every rank's result is exact, that every all-reduce
takes its schedule's closed-form step count, that the grid's first point
(which is traced) reconciles its summed phase spans with its latency
under the shared 1% rule, and that a ``dev2dev-pollOnGPU`` ring step of
at most 256 B costs 0.5-3x a 2-node ping-pong one-way.  Exit status is
non-zero if any verdict fails.

With ``--trace [PATH]`` the traced point is written as a Chrome
trace-event JSON (Perfetto / ``chrome://tracing``).

Examples::

    python -m repro collectives --op all-reduce --nodes 2,4,8 --sizes 64,256
    python -m repro collectives --trace coll.json --op all-reduce --nodes 4
    python -m repro collectives --quick        # CI smoke subset
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.invariants import render
from ..cliargs import csv_list
from ..cluster import TOPOLOGIES
from ..obs.export import phase_breakdown, render_breakdown, write_chrome_trace
from ..perf.scenarios import collectives_allreduce
from .bench import OPS, render_results
from .comm import CollectiveMode, collective_mode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro collectives",
        description="GPU-initiated collectives over put/get: scaling sweeps "
                    "and Chrome-trace export.")
    parser.add_argument("--op", default="all", choices=("all",) + OPS,
                        help="operation, or 'all' (default: all)")
    parser.add_argument("--nodes", default="2,4", type=csv_list(int),
                        help="comma-separated node counts (default: 2,4)")
    parser.add_argument("--sizes", default="8,64,256", type=csv_list(int),
                        help="comma-separated per-message payload bytes, "
                             "multiples of 8 (default: 8,64,256)")
    parser.add_argument("--topology", default="auto",
                        choices=("auto",) + TOPOLOGIES,
                        help="fabric topology (default: auto = pair for 2 "
                             "nodes, ring otherwise)")
    parser.add_argument("--mode", default=CollectiveMode.POLL_ON_GPU.value,
                        choices=[m.value for m in CollectiveMode],
                        help="who drives the NIC "
                             "(default: dev2dev-pollOnGPU)")
    parser.add_argument("--iterations", type=int, default=8,
                        help="measured rounds per point (default: 8)")
    parser.add_argument("--warmup", type=int, default=2,
                        help="warmup rounds per point (default: 2)")
    parser.add_argument("--trace", nargs="?", const="collectives-trace.json",
                        default=None, metavar="PATH",
                        help="write the Chrome trace of the traced point "
                             "(the first op, N and size; default path: "
                             "collectives-trace.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small fixed sweep for CI smoke runs")
    args = parser.parse_args(argv)

    if args.quick:
        ops = ["barrier", "all-reduce"]
        node_counts, sizes = [2, 3], [64]
        iterations, warmup = 3, 1
    else:
        ops = list(OPS) if args.op == "all" else [args.op]
        node_counts, sizes = args.nodes, args.sizes
        iterations, warmup = args.iterations, args.warmup

    result = collectives_allreduce(
        ops=ops, modes=[collective_mode(args.mode)], nodes=node_counts,
        sizes=sizes, topology=args.topology, iterations=iterations,
        warmup=warmup)
    print(render_results(result.runs["results"]))
    if args.trace is not None:
        tracer = result.runs["tracer"]
        write_chrome_trace(tracer, args.trace)
        print()
        print(render_breakdown(phase_breakdown(tracer)))
        print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants, "
              f"{len(tracer.tracks())} tracks -> {args.trace}")
    print()
    print(render(result.verdicts))
    return 0 if all(v.ok for v in result.verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
