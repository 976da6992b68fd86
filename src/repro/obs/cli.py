"""``python -m repro trace`` — run one traced measurement, export the trace.

Runs a ping-pong measurement with a :class:`SpanTracer` installed, writes a
Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``), and
prints the per-phase latency breakdown reconciled against the measured
:class:`~repro.core.results.LatencyPoint` — the Fig. 3 attribution, but as
a timeline instead of two aggregate numbers.

Example::

    python -m repro trace --mode dev2dev-direct --size 64 --out trace.json
"""

from __future__ import annotations

import argparse
import sys
from typing import Tuple

from ..analysis.invariants import reconciles, render
from ..cluster import build_extoll_cluster, build_ib_cluster
from ..core.modes import ExtollMode, IbMode
from ..core.pingpong import run_extoll_pingpong, run_ib_pingpong
from ..core.setup import setup_extoll_connection, setup_ib_connection
from ..engine import PINGPONG_CONFIGS, run_engine_pingpong
from ..errors import ConfigError
from ..sim import Simulator
from .export import (
    phase_breakdown,
    reconcile_with_point,
    render_breakdown,
    render_timeline,
    write_chrome_trace,
)
from .tracer import SpanTracer

_BUF_BYTES = 64 * 1024


def pingpong_modes(fabric: str) -> Tuple[str, ...]:
    """Every mode :func:`run_traced_pingpong` runs on ``fabric``: the
    paper's four, plus the offload engine's two on EXTOLL."""
    if fabric == "ib":
        return tuple(m.value for m in IbMode)
    return tuple(m.value for m in ExtollMode) + tuple(PINGPONG_CONFIGS)


#: ``--mode`` choices of the ``trace`` and ``profile`` parsers (both
#: fabrics; :func:`run_traced_pingpong` rejects a mode of the other one).
MODE_CHOICES = tuple(dict.fromkeys(pingpong_modes("extoll")
                                   + pingpong_modes("ib")))


def run_traced_pingpong(fabric: str, mode_name: str, size: int,
                        iterations: int, warmup: int,
                        tracer: SpanTracer | None = None):
    """Build a cluster with ``tracer`` installed, run one ping-pong
    measurement, and return ``(tracer, point)``."""
    valid = pingpong_modes(fabric)
    if mode_name not in valid:
        raise ConfigError(f"unknown {fabric} mode {mode_name!r} "
                          f"(choose from: {', '.join(valid)})")
    tracer = tracer or SpanTracer()
    sim = Simulator(tracer=tracer)
    if fabric == "extoll":
        cluster = build_extoll_cluster(sim=sim)
        conn = setup_extoll_connection(cluster, max(_BUF_BYTES, size))
        if mode_name in PINGPONG_CONFIGS:
            point = run_engine_pingpong(cluster, conn, size,
                                        iterations=iterations, warmup=warmup,
                                        config=PINGPONG_CONFIGS[mode_name])
        else:
            point = run_extoll_pingpong(cluster, conn, ExtollMode(mode_name),
                                        size, iterations=iterations,
                                        warmup=warmup)
    else:
        mode = IbMode(mode_name)
        cluster = build_ib_cluster(sim=sim)
        conn = setup_ib_connection(cluster, max(_BUF_BYTES, size),
                                   mode.ring_location)
        point = run_ib_pingpong(cluster, conn, mode, size,
                                iterations=iterations, warmup=warmup)
    return tracer, point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Trace one ping-pong run and export a Chrome trace.")
    parser.add_argument("--fabric", choices=("extoll", "ib"), default="extoll",
                        help="which NIC model to trace (default: extoll)")
    parser.add_argument("--mode", default="dev2dev-direct",
                        choices=MODE_CHOICES, metavar="MODE",
                        help=f"communication mode: "
                             f"{', '.join(pingpong_modes('extoll'))} on "
                             f"extoll; {', '.join(pingpong_modes('ib'))} "
                             f"on ib (default: dev2dev-direct)")
    parser.add_argument("--size", type=int, default=64,
                        help="message size in bytes (default: 64)")
    parser.add_argument("--iterations", type=int, default=30,
                        help="measured iterations (default: 30)")
    parser.add_argument("--warmup", type=int, default=3,
                        help="warmup iterations (default: 3)")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome trace output path (default: trace.json)")
    parser.add_argument("--timeline", action="store_true",
                        help="also print the plain-text timeline")
    parser.add_argument("--timeline-limit", type=int, default=80,
                        help="max timeline rows to print (default: 80)")
    parser.add_argument("--categories", default=None,
                        help="comma-separated category filter "
                             "(e.g. phase,pcie,extoll)")
    args = parser.parse_args(argv)

    categories = ([c.strip() for c in args.categories.split(",") if c.strip()]
                  if args.categories else None)
    tracer = SpanTracer(categories=categories)
    tracer, point = run_traced_pingpong(args.fabric, args.mode, args.size,
                                        args.iterations, args.warmup, tracer)

    write_chrome_trace(tracer, args.out)

    print(f"{args.fabric} {args.mode} size={args.size}B "
          f"iterations={args.iterations}")
    print(f"half-round-trip latency : {point.latency_us:10.3f} us")
    print(f"WR generation (mean)    : {point.post_time * 1e6:10.3f} us")
    print(f"polling (mean)          : {point.poll_time * 1e6:10.3f} us")
    print()
    print(render_breakdown(phase_breakdown(tracer)))
    recon = reconcile_with_point(tracer, point, args.iterations)
    verdicts = [reconciles(f"reconcile {phase}", r["traced"], r["expected"])
                for phase, r in recon["phases"].items()]
    print()
    print(render(verdicts))
    print()
    print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants, "
          f"{len(tracer.tracks())} tracks -> {args.out}")
    if args.timeline:
        print()
        print(render_timeline(tracer, limit=args.timeline_limit))
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
