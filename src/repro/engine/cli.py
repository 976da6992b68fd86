"""``python -m repro engine`` — sweep the offload engine, verify its claims.

Three stages:

1. **Latency sweep** — ping-pong over message sizes: ``dev2dev-direct``
   (the paper's best GPU-controlled mode) vs the engine with each
   optimization alone and all of them armed.
2. **Rate sweep** — message rate over 1..32 connections: the paper's
   ``dev2dev-hostControlled`` / ``dev2dev-blocks`` references vs the same
   engine variants driven by ONE persistent proxy block.
3. **Verification** — the acceptance invariants, cross-checked three ways:
   driver-side :class:`~repro.engine.EngineStats`, the NIC's hardware
   counters, and the span trace's metric counters (equal, count for
   count), plus the traced pingpong's phase spans reconciled against the
   measured point within 1%.

Exit status is non-zero if any invariant fails, so CI can gate on it.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Tuple

from ..analysis import invariants as inv
from ..analysis.invariants import Verdict
from ..core.measure import measure_message_rate, measure_pingpong
from ..core.modes import ExtollMode, RateMethod
from ..obs.export import reconcile_with_point, write_chrome_trace
from ..obs.tracer import SpanTracer
from ..sim import Simulator
from .engine import EngineConfig, EngineStats

#: The sweep's engine variants, in ablation order.
VARIANTS: List[Tuple[str, EngineConfig]] = [
    ("engine-baseline", EngineConfig.baseline()),
    ("engine-warp", EngineConfig.warp_only()),
    ("engine-batch", EngineConfig.batch_only()),
    ("engine-all", EngineConfig.all_on()),
]

FULL_SIZES = [64, 256, 1024, 4096]
QUICK_SIZES = [64]
FULL_CONNECTIONS = [1, 2, 4, 8, 16, 32]
QUICK_CONNECTIONS = [1, 32]


def latency_sweep(sizes: List[int], iterations: int, warmup: int,
                  seed: int) -> Dict[int, Dict[str, float]]:
    """Half-round-trip latency per size: direct reference + every engine
    variant.  Each cell runs on a fresh cluster so ports/cursors are
    independent."""
    def latency(mode, size: int) -> float:
        return measure_pingpong(mode, size, iterations, warmup,
                                sim=Simulator(seed=seed)).latency

    modes = [("dev2dev-direct", ExtollMode.DIRECT)] + VARIANTS
    return {size: {name: latency(mode, size) for name, mode in modes}
            for size in sizes}


def rate_sweep(conn_counts: List[int], per_connection: int, seed: int,
               ) -> Tuple[Dict[int, Dict[str, float]], Dict[int, EngineStats]]:
    """Messages/s per connection count: host-controlled and blocks
    references + every engine variant.  Also returns the all-on variant's
    :class:`EngineStats` per count (for the MMIO verdicts)."""
    rates: Dict[int, Dict[str, float]] = {}
    all_stats: Dict[int, EngineStats] = {}
    for n in conn_counts:
        row: Dict[str, float] = {}
        for method in (RateMethod.HOST_CONTROLLED, RateMethod.BLOCKS):
            row[method.value] = measure_message_rate(
                method, n, per_connection,
                sim=Simulator(seed=seed)).messages_per_s
        for name, config in VARIANTS:
            stats = EngineStats()
            row[name] = measure_message_rate(
                config, n, per_connection, sim=Simulator(seed=seed),
                stats=stats).messages_per_s
            if name == "engine-all":
                all_stats[n] = stats
        rates[n] = row
    return rates, all_stats


def counter_verdicts(nic, stats: EngineStats, metrics) -> List[Verdict]:
    """Driver stats vs the NIC's hardware counters vs the span trace's
    metric counters: each pair counts the same doorbells or descriptors, so
    each must match exactly."""
    return [
        inv.counts_match("nic-doorbell-counter", nic.batch_doorbells,
                         stats.batches),
        inv.counts_match("nic-descriptor-counter", nic.batch_descriptors,
                         stats.wrs),
        inv.counts_match("trace-doorbell-counter",
                         metrics.counter("rma.batch_doorbells").value,
                         stats.batches),
        inv.counts_match("trace-wr-counter",
                         metrics.counter("rma.wr_triggers").value,
                         stats.wrs),
    ]


def verification(latencies: Dict[int, Dict[str, float]],
                 rates: Dict[int, Dict[str, float]],
                 all_stats: Dict[int, EngineStats],
                 per_connection: int, iterations: int, warmup: int,
                 seed: int, trace_out: Optional[str] = None,
                 ) -> List[Verdict]:
    """The acceptance invariants, plus trace-reconciliation runs."""
    verdicts: List[Verdict] = []
    config = EngineConfig.all_on()

    # 1. Small-message latency: all-on engine must beat dev2dev-direct.
    lat_row = latencies[min(latencies)]
    verdicts.append(Verdict("latency-64B", *inv.faster_than(
        lat_row["engine-all"], lat_row["dev2dev-direct"],
        "engine-all", "dev2dev-direct")))

    # 2. Many-connection rate: all-on engine >= dev2dev-hostControlled.
    top = max(rates)
    verdicts.append(Verdict(f"rate-{top}conn", *inv.rate_at_least(
        rates[top]["engine-all"], rates[top][RateMethod.HOST_CONTROLLED.value],
        "engine-all msg/s", "hostControlled msg/s")))

    # 3. MMIO coalescing: the configured batch factor must materialize.
    stats = all_stats[top]
    verdicts.append(Verdict("mmio-coalescing", *inv.mmio_coalesced(
        stats.doorbells, stats.wrs, config.batch_size,
        stats.timeout_flushes, lanes=top)))

    # 4. Three-way counter reconciliation on a TRACED all-on rate run.
    tracer = SpanTracer()
    traced_stats = EngineStats()
    clusters = []
    measure_message_rate(config, top, per_connection,
                         sim=Simulator(seed=seed, tracer=tracer),
                         stats=traced_stats, on_setup=clusters.append)
    verdicts += counter_verdicts(clusters[0].a.nic, traced_stats,
                                 tracer.metrics)
    if trace_out:
        write_chrome_trace(tracer, trace_out)

    # 5. Traced engine pingpong: driver phase spans must reconcile with the
    # measured point.
    ping_tracer = SpanTracer()
    point = measure_pingpong(config, min(latencies), iterations, warmup,
                             sim=Simulator(seed=seed, tracer=ping_tracer))
    recon = reconcile_with_point(ping_tracer, point, iterations)
    verdicts += [inv.reconciles(f"span-reconcile-{phase}", r["traced"],
                                r["expected"])
                 for phase, r in recon["phases"].items()]
    return verdicts


def _render_table(title: str, unit: str, col_key: str,
                  data: Dict[int, Dict[str, float]],
                  scale: float) -> List[str]:
    columns = list(next(iter(data.values())).keys())
    lines = [title, "=" * len(title)]
    header = f"{col_key:>10} " + "".join(f"{c:>22}" for c in columns)
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

    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    conn_counts = QUICK_CONNECTIONS if args.quick else FULL_CONNECTIONS
    per_connection = args.per_connection or (30 if args.quick else 60)
    iterations = args.iterations or (20 if args.quick else 30)

    latencies = latency_sweep(sizes, iterations, args.warmup, args.seed)
    for line in _render_table("Engine latency sweep (half round trip)", "us",
                              "size/B", latencies, 1e6):
        print(line)
    print()

    rates, all_stats = rate_sweep(conn_counts, per_connection, args.seed)
    for line in _render_table("Engine message-rate sweep", "M msg/s",
                              "conns", rates, 1e-6):
        print(line)
    stats = all_stats[max(all_stats)]
    print(f"engine-all @ {max(all_stats)} connections: "
          f"{stats.messages} messages -> {stats.wrs} descriptors "
          f"(aggregation) -> {stats.doorbells} doorbell MMIO writes "
          f"(coalescing); {stats.passes} scheduler passes, "
          f"{stats.backoff_yields} backoff yields")
    print()

    verdicts = verification(latencies, rates, all_stats, per_connection,
                            iterations, args.warmup, args.seed, args.out)
    print("Acceptance invariants")
    print("=====================")
    print(inv.render(verdicts))
    if args.out:
        print(f"\ntrace written to {args.out}")
    return 0 if all(v.ok for v in verdicts) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
