"""``python -m repro trace`` — run one traced measurement, export the trace.

Runs a ping-pong measurement with a :class:`SpanTracer` installed, writes a
Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``), and
prints the per-phase latency breakdown reconciled against the measured
:class:`~repro.core.results.LatencyPoint` — the Fig. 3 attribution, but as
a timeline instead of two aggregate numbers — followed by the same run's
cost-attribution profile (:mod:`repro.perf.profiler`); ``--json``
additionally dumps the machine-readable profile.  Exit status 1 if any
verdict fails: a phase or the attributed total disagrees with the
end-to-end timing.

Example::

    python -m repro trace --mode dev2dev-direct --size 64 --out trace.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..analysis.invariants import reconciles, render, to_json
from ..core.measure import measure_pingpong, pingpong_mode, pingpong_modes
from ..perf.profiler import (PROFILE_CATEGORIES, profile_from_trace,
                             render_profile)
from ..sim import Simulator
from .export import (
    phase_breakdown,
    reconcile_with_point,
    render_breakdown,
    render_timeline,
    write_chrome_trace,
)
from .tracer import SpanTracer

#: ``--mode`` choices of the ``trace`` parser (both fabrics;
#: :func:`run_traced_pingpong` rejects a mode of the other one).
MODE_CHOICES = tuple(dict.fromkeys(pingpong_modes("extoll")
                                   + pingpong_modes("ib")))


def run_traced_pingpong(fabric: str, mode_name: str, size: int,
                        iterations: int, warmup: int,
                        tracer: SpanTracer | None = None):
    """Run one ping-pong measurement with ``tracer`` installed, and return
    ``(tracer, point)``."""
    mode = pingpong_mode(fabric, mode_name)
    tracer = tracer or SpanTracer()
    point = measure_pingpong(mode, size, iterations, warmup,
                             sim=Simulator(tracer=tracer))
    return tracer, point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Trace one ping-pong run, export a Chrome trace, and "
                    "attribute its cost to phases (WQE generation, MMIO, "
                    "wire, DMA, polling).")
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
                        help="comma-separated span categories to record "
                             "(default: all); must include "
                             f"{','.join(PROFILE_CATEGORIES)}, which the "
                             "breakdown and the profile read (e.g. "
                             f"{','.join(PROFILE_CATEGORIES)},gpu)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the cost-attribution profile as "
                             "JSON")
    args = parser.parse_args(argv)

    categories = ([c.strip() for c in args.categories.split(",") if c.strip()]
                  if args.categories else None)
    missing = [c for c in PROFILE_CATEGORIES
               if categories is not None and c not in categories]
    if missing:
        parser.error(f"--categories drops {','.join(missing)}, which the "
                     f"breakdown and the profile read")
    tracer = SpanTracer(categories=categories)
    tracer, point = run_traced_pingpong(args.fabric, args.mode, args.size,
                                        args.iterations, args.warmup, tracer)

    write_chrome_trace(tracer, args.out)
    profile = profile_from_trace(tracer, point, args.fabric, args.mode,
                                 args.iterations)

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
    print(render_profile(profile))
    verdicts.append(profile.verdict)
    print()
    print(f"{len(tracer.spans)} spans, {len(tracer.instants)} instants, "
          f"{len(tracer.tracks())} tracks -> {args.out}")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({**profile.to_dict(), "verdicts": to_json(verdicts)},
                      fh, indent=2)
            fh.write("\n")
        print(f"profile written to {args.json}")
    if args.timeline:
        print()
        print(render_timeline(tracer, limit=args.timeline_limit))
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
