#!/usr/bin/env python
"""Compare all communication configurations on both fabrics.

A compact version of the paper's Figs. 1a and 4a: ping-pong latency for
every control-path configuration at a few message sizes, printed as the
tables the figures plot.

Run:  python examples/mode_comparison.py [--sizes 16 1024 65536]
"""

import argparse

from repro.core import (
    ExtollMode,
    IbMode,
    Series,
    measure_pingpong,
    render_latency_table,
)
from repro.units import KIB


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[16, 1 * KIB, 64 * KIB])
    parser.add_argument("--iterations", type=int, default=15)
    args = parser.parse_args()

    def curves(modes):
        return [Series(mode.value,
                       [measure_pingpong(mode, size, args.iterations)
                        for size in args.sizes])
                for mode in modes]

    extoll_series = curves(ExtollMode)
    print(render_latency_table(extoll_series, "EXTOLL ping-pong latency"))
    print()
    ib_series = curves(IbMode)
    print(render_latency_table(ib_series, "InfiniBand ping-pong latency"))

    # The paper's summary line (§VI): CPU control always wins today.
    for series_list, name in ((extoll_series, "EXTOLL"), (ib_series, "IB")):
        host = next(s for s in series_list if "hostControlled" in s.label)
        fastest_gpu = min(
            (p.latency for s in series_list if "hostControlled" not in s.label
             for p in s.points if p.size == args.sizes[0]))
        host_lat = host.points[0].latency
        print(f"\n{name}: best GPU-controlled small-message latency is "
              f"{fastest_gpu / host_lat:.2f}x the host-controlled one")


if __name__ == "__main__":
    main()
