"""Render a full reproduction report (all figures and tables) as text.

``python -m repro.analysis.report [--scale S]`` regenerates every result the
paper reports and prints them in the paper's layout.
"""

from __future__ import annotations

import argparse
import sys

from ..core import (
    render_bandwidth_table,
    render_counter_table,
    render_latency_table,
    render_rate_table,
)
from . import figures, tables
from ..units import format_size


def render_fig3(series_list, title: str) -> str:
    sizes = sorted({p.size for s in series_list for p in s.points})
    lines = [title, "=" * len(title)]
    lines.append("size".rjust(10) + "".join(s.label.rjust(18) for s in series_list))
    for size in sizes:
        row = format_size(size).rjust(10)
        for s in series_list:
            p = s.by_x().get(size)
            row += (f"{p.poll_to_post_ratio:.1f}x" if p else "-").rjust(18)
        lines.append(row)
    return "\n".join(lines)


def generate_report(scale: float = 1.0) -> None:
    def emit(text: str) -> None:
        sys.stdout.write(text + "\n\n")

    emit(render_latency_table(figures.fig1a_extoll_latency(scale),
                              "Fig. 1a — EXTOLL ping-pong latency"))
    emit(render_bandwidth_table(figures.fig1b_extoll_bandwidth(scale),
                                "Fig. 1b — EXTOLL streaming bandwidth"))
    emit(render_rate_table(figures.fig2_extoll_message_rate(scale),
                           "Fig. 2 — EXTOLL message rate (64 B)"))
    emit(render_counter_table(list(tables.table1_extoll_polling()),
                              "Table I — EXTOLL polling counters (100 iters, 1 KiB)"))
    emit(render_fig3(figures.fig3_polling_ratio(scale),
                     "Fig. 3 — polling time / WR generation time"))
    emit(render_latency_table(figures.fig4a_ib_latency(scale),
                              "Fig. 4a — InfiniBand ping-pong latency"))
    emit(render_bandwidth_table(figures.fig4b_ib_bandwidth(scale),
                                "Fig. 4b — InfiniBand streaming bandwidth"))
    emit(render_rate_table(figures.fig5_ib_message_rate(scale),
                           "Fig. 5 — InfiniBand message rate (64 B)"))
    emit(render_counter_table(list(tables.table2_ib_buffers()),
                              "Table II — InfiniBand buffer-placement counters"))
    ops = tables.single_op_costs()
    emit("Single-operation instruction counts (§V-B3)\n"
         "===========================================\n"
         f"ibv_post_send : {ops['ibv_post_send']}  (paper: 442)\n"
         f"ibv_poll_cq   : {ops['ibv_poll_cq']}  (paper: 283)\n"
         f"EXTOLL post   : {ops['extoll_post']}  (paper: 'a few tens')")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.5,
                        help="parameter-grid scale (1.0 = paper-sized)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="also record every simulator into a Chrome "
                             "trace-event JSON file at PATH")
    args = parser.parse_args(argv)
    if args.trace:
        from ..obs import SpanTracer, write_chrome_trace
        from ..sim import set_default_tracer
        # The full report runs dozens of simulations; keep the newest 1M
        # spans (and instants, flows) so the trace stays loadable; the
        # evicted ones are counted in ``dropped``.
        tracer = SpanTracer(capacity=1_000_000)
        set_default_tracer(tracer)  # every cluster built below picks it up
        try:
            generate_report(scale=args.scale)
        finally:
            set_default_tracer(None)
        write_chrome_trace(tracer, args.trace)
        print(f"trace: {len(tracer.spans)} spans -> {args.trace}",
              file=sys.stderr)
    else:
        generate_report(scale=args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
