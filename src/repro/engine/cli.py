"""``python -m repro engine`` — sweep the offload engine, verify its claims.

Runs the ``engine-latency`` and ``engine-rate`` scenarios
(:mod:`repro.perf.scenarios`) on the sweep's grid and prints:

1. **Latency sweep** — ping-pong over message sizes: ``dev2dev-direct``
   (the paper's best GPU-controlled mode) vs the engine with each
   optimization alone and all of them armed.
2. **Rate sweep** — message rate over 1..32 connections: the paper's
   ``dev2dev-hostControlled`` / ``dev2dev-blocks`` references vs the same
   engine variants driven by ONE persistent proxy block.
3. **Verdicts** — the scenarios' checks: the shape claims, the traced
   all-on rate run's ``EngineStats`` vs the NIC's hardware counters and the
   span trace's metric counters (equal, count for count), and the traced
   all-on ping-pong's phase spans reconciled against its point within 1%.

Exit status is non-zero if any verdict fails, so CI can gate on it.
"""

from __future__ import annotations

import argparse
from typing import Dict, List

from ..analysis import invariants as inv
from ..obs.export import write_chrome_trace
from ..perf.scenarios import engine_latency, engine_rate

FULL_SIZES = (64, 256, 1024, 4096)
QUICK_SIZES = (64,)
FULL_CONNECTIONS = (1, 2, 4, 8, 16, 32)
QUICK_CONNECTIONS = (1, 32)

#: Table headers of the scenarios' reference columns.
_HEADERS = {"direct": "dev2dev-direct",
            "hostControlled": "dev2dev-hostControlled",
            "blocks": "dev2dev-blocks"}


def _render_table(title: str, unit: str, col_key: str,
                  data: Dict[int, Dict[str, float]],
                  scale: float) -> List[str]:
    columns = list(next(iter(data.values())).keys())
    lines = [title, "=" * len(title)]
    header = f"{col_key:>10} " + "".join(f"{_HEADERS.get(c, c):>22}"
                                         for c in columns)
    lines.append(header)
    for key in sorted(data):
        row = data[key]
        lines.append(f"{key:>10} " + "".join(
            f"{row[c] * scale:>20.3f}{'':2}" for c in columns))
    lines.append(f"(values in {unit})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro engine",
        description="Sweep the GPU offload engine and verify its claims.")
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI (64B; 1 and 32 connections)")
    parser.add_argument("--per-connection", type=int, default=None,
                        help="messages per connection in the rate sweep "
                             "(default: 60, quick: 30)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="pingpong iterations (default: 30, quick: 20)")
    parser.add_argument("--warmup", type=int, default=3,
                        help="pingpong warmup iterations (default: 3)")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulator seed (default: 7)")
    parser.add_argument("--out", default=None,
                        help="write the traced rate run as a Chrome trace")
    args = parser.parse_args(argv)
    if args.iterations is None:
        args.iterations = 20 if args.quick else 30
    if args.per_connection is None:
        args.per_connection = 30 if args.quick else 60

    latency = engine_latency(
        sizes=QUICK_SIZES if args.quick else FULL_SIZES,
        iterations=args.iterations, warmup=args.warmup, seed=args.seed)
    rate = engine_rate(
        connections=QUICK_CONNECTIONS if args.quick else FULL_CONNECTIONS,
        per_connection=args.per_connection, seed=args.seed)

    points = latency.runs["points"]
    for line in _render_table(
            "Engine latency sweep (half round trip)", "us", "size/B",
            {size: {name: p.latency for name, p in row.items()}
             for size, row in points.items()}, 1e6):
        print(line)
    print()

    rates = rate.runs["rates"]
    for line in _render_table(
            "Engine message-rate sweep", "M msg/s", "conns",
            {n: {name: p.messages_per_s for name, p in row.items()}
             for n, row in rates.items()}, 1e-6):
        print(line)
    stats = rate.runs["stats"]
    print(f"engine-all @ {max(rates)} connections: "
          f"{stats.messages} messages -> {stats.wrs} descriptors "
          f"(aggregation) -> {stats.doorbells} doorbell MMIO writes "
          f"(coalescing); {stats.passes} scheduler passes, "
          f"{stats.backoff_yields} backoff yields")
    print()

    verdicts = latency.verdicts + rate.verdicts
    print("Acceptance invariants")
    print("=====================")
    print(inv.render(verdicts))
    if args.out:
        write_chrome_trace(rate.runs["tracer"], args.out)
        print(f"\ntrace written to {args.out}")
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
