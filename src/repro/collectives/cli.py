"""``python -m repro collectives`` — scaling sweeps and traced runs.

Without ``--trace``: sweep operation x node count x message size, print the
latency/bandwidth/step table, and exit non-zero if any result failed its
functional check.

With ``--trace [PATH]``: run ONE configuration (the first op/N/size of the
sweep) with a :class:`~repro.obs.SpanTracer` installed, export a Chrome
trace-event JSON (Perfetto / ``chrome://tracing``), and reconcile the
summed per-operation phase spans against the reported latency under the
shared 1% agreement rule.

Examples::

    python -m repro collectives --op all-reduce --nodes 2,4,8 --sizes 64,256
    python -m repro collectives --trace coll.json --op all-reduce --nodes 4
    python -m repro collectives --quick        # CI smoke subset
"""

from __future__ import annotations

import argparse
import sys

from ..analysis.invariants import Verdict, reconciles, relative_error, render
from ..cluster import TOPOLOGIES
from ..obs import SpanTracer
from ..obs.export import (
    chrome_trace_events,
    phase_breakdown,
    render_breakdown,
    validate_chrome_trace,
    write_chrome_trace,
)
from ..sim import Simulator
from .bench import (OPS, build_communicator, op_connectivity,
                    op_max_payload, render_results, run_collective, sweep)
from .comm import CollectiveMode, collective_mode


def _csv_ints(text: str, what: str):
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise SystemExit(f"bad {what} list {text!r}")
    if not values:
        raise SystemExit(f"empty {what} list")
    return values


def reconcile_trace(tracer: SpanTracer, op: str, result) -> dict:
    """Compare the summed ``phase`` spans named ``op`` with
    ``latency * iterations``; both clocks sample rank 0's driver loop."""
    stat = phase_breakdown(tracer).get(op)
    traced = stat.total if stat else 0.0
    expected = result.point.latency * result.iterations
    return {"phase": op, "traced": traced, "expected": expected,
            "rel_err": relative_error(traced, expected),
            "ok": reconciles(op, traced, expected).ok}


def _functional_check(results) -> Verdict:
    bad = [r for r in results if not r.correct]
    return Verdict("functional check", not bad,
                   f"{len(results) - len(bad)}/{len(results)} measurement(s) "
                   f"computed every rank's exact result")


def run_traced_collective(op: str, nodes: int, size: int,
                          mode: CollectiveMode, topology: str,
                          iterations: int, warmup: int,
                          tracer: SpanTracer | None = None):
    """Build a traced cluster, run one collective, return
    ``(tracer, result)``."""
    tracer = tracer or SpanTracer()
    sim = Simulator(tracer=tracer)
    cluster, comm = build_communicator(
        nodes, size, mode, topology, sim=sim,
        connectivity=op_connectivity(op),
        max_payload=op_max_payload(op, nodes, size))
    result = run_collective(cluster, comm, op, size,
                            iterations=iterations, warmup=warmup)
    return tracer, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro collectives",
        description="GPU-initiated collectives over put/get: scaling sweeps "
                    "and Chrome-trace export.")
    parser.add_argument("--op", default="all",
                        help=f"operation, or 'all' (choices: "
                             f"{', '.join(OPS)}; default: all)")
    parser.add_argument("--nodes", default="2,4",
                        help="comma-separated node counts (default: 2,4)")
    parser.add_argument("--sizes", default="8,64,256",
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
                        help="trace ONE configuration and write a Chrome "
                             "trace (default path: collectives-trace.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small fixed sweep for CI smoke runs")
    args = parser.parse_args(argv)

    if args.quick:
        ops = ["barrier", "all-reduce"]
        node_counts, sizes = [2, 3], [64]
        iterations, warmup = 3, 1
    else:
        ops = list(OPS) if args.op == "all" else [args.op]
        for op in ops:
            if op not in OPS:
                raise SystemExit(f"unknown op {op!r} "
                                 f"(choose from: {', '.join(OPS)})")
        node_counts = _csv_ints(args.nodes, "node count")
        sizes = _csv_ints(args.sizes, "size")
        iterations, warmup = args.iterations, args.warmup
    mode = collective_mode(args.mode)

    if args.trace is not None:
        op = "all-reduce" if args.op == "all" else ops[0]
        nodes, size = node_counts[0], sizes[0]
        tracer, result = run_traced_collective(
            op, nodes, size, mode, args.topology, iterations, warmup)
        events = chrome_trace_events(tracer)
        validate_chrome_trace(events)
        write_chrome_trace(tracer, args.trace)

        print(f"{op} mode={mode.value} topology={result.topology} "
              f"N={nodes} size={size}B iterations={result.iterations}")
        print(f"latency per operation : {result.latency_us:10.3f} us")
        print(f"steps per rank        : {result.steps}")
        print(f"injected bandwidth    : {result.bandwidth.mb_per_s:10.1f} MB/s")
        print()
        print(render_breakdown(phase_breakdown(tracer)))
        recon = reconcile_trace(tracer, op, result)
        verdicts = [
            _functional_check([result]),
            reconciles(f"reconcile {op}", recon["traced"], recon["expected"]),
        ]
        print()
        print(render(verdicts))
        print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants, "
              f"{len(tracer.tracks())} tracks -> {args.trace}")
        return 0 if all(v.ok for v in verdicts) else 1

    results = list(sweep(ops, node_counts, sizes, mode, args.topology,
                         iterations=iterations, warmup=warmup))
    print(render_results(results))
    verdict = _functional_check(results)
    print()
    print(render([verdict]))
    return 0 if verdict.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
