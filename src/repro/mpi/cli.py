"""``python -m repro mpi`` — the MPI-shaped layer's self-checking demo.

Runs the tagged ping-pong sweep across the eager/rendezvous crossover and
the triggered iallreduce against all three PR 2 control modes, then renders
the ablation table the experiment is about: host-assist control paths pay
BAR crossings per step, the triggered layer pays zero — below even the
offload engine's batched-doorbell floor.

The runs and their verdicts are the ``mpi-latency`` and ``mpi-allreduce``
scenarios' (:mod:`repro.perf.scenarios`), on this command's grid; exit
status is non-zero if any verdict fails.
"""

from __future__ import annotations

import argparse
import json

from ..analysis.invariants import Verdict, render, to_json
from ..obs.export import write_chrome_trace
from ..perf.scenarios import mpi_allreduce, mpi_latency
from .comm import MpiConfig


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro mpi",
        description="Tagged ping-pong + triggered iallreduce vs the three "
                    "host-assist control modes.")
    parser.add_argument("--nodes", type=int, default=4,
                        help="iallreduce ring size (default: 4)")
    parser.add_argument("--size", type=int, default=256,
                        help="iallreduce vector bytes per rank chunk "
                             "(default: 256)")
    parser.add_argument("--iterations", type=int, default=4,
                        help="measured rounds (default: 4)")
    parser.add_argument("--algorithm", default="ring",
                        choices=("ring", "rh", "tree"),
                        help="iallreduce schedule: ring 2(N-1), recursive "
                             "halving 2*log2 N, binomial tree "
                             "(default: ring)")
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI (2 nodes, 2 iterations)")
    parser.add_argument("--seed", type=int, default=11,
                        help="simulator seed (default: 11)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--out", default=None,
                        help="write the iallreduce run as a Chrome trace")
    parser.add_argument("--force-mismatch", action="store_true",
                        help="append a deliberately failing verdict (CI "
                             "canary: proves mismatches gate the exit "
                             "status and still emit the report)")
    args = parser.parse_args(argv)

    nodes = 2 if args.quick else args.nodes
    iterations = 2 if args.quick else args.iterations
    size = args.size

    latency = mpi_latency(iterations=iterations, seed=args.seed)
    allreduce = mpi_allreduce(nodes, size, iterations=iterations,
                              seed=args.seed, algorithm=args.algorithm)
    if args.out:
        write_chrome_trace(allreduce.runs["tracer"], args.out)
    pp = latency.runs["pingpongs"]
    ar = allreduce.runs["allreduce"]
    modes = allreduce.runs["modes"]
    floor = allreduce.runs["floor"]

    verdicts = latency.verdicts + allreduce.verdicts
    if args.force_mismatch:
        verdicts.append(Verdict(
            "forced-mismatch", False,
            "deliberate failure requested via --force-mismatch"))
    ok = all(v.ok for v in verdicts)

    if args.json:
        print(json.dumps({
            "nodes": nodes, "size": size, "iterations": iterations,
            "seed": args.seed,
            "eager_threshold": MpiConfig().eager_threshold,
            "pingpong": [{
                "size": p.size, "latency_us": p.point.latency_us,
                "protocol": p.protocol, "eager_sent": p.eager_sent,
                "rndv_sent": p.rndv_sent, "bar_mmio": p.bar_mmio,
            } for p in pp],
            "iallreduce": {
                "algorithm": ar.algorithm,
                "latency_us": ar.point.latency_us,
                "chains_fired": ar.chains_fired,
                "descriptors_fired": ar.descriptors_fired,
                "bar_mmio": ar.bar_mmio, "correct": ar.correct,
                "reconcile": ar.reconcile,
            },
            "modes": modes, "engine_floor": floor,
            "verdicts": to_json(verdicts),
            "ok": ok,
        }, indent=2))
        return 0 if ok else 1

    print(f"MPI-shaped layer: tagged ping-pong + {nodes}-rank iallreduce "
          f"({size} B chunks, {iterations} rounds)")
    print("=" * 64)
    print(f"{'size':>8} {'protocol':>12} {'latency':>12} {'BAR MMIO':>10}")
    for p in pp:
        print(f"{p.size:>8} {p.protocol:>12} "
              f"{p.point.latency_us:>10.2f}us {p.bar_mmio:>10}")
    print()
    print(f"{'control path':>24} {'latency':>12} {'BAR MMIO':>10}")
    print(f"{'mpi (triggered chains)':>24} "
          f"{ar.point.latency_us:>10.2f}us {ar.bar_mmio:>10}")
    for m in modes:
        print(f"{m['mode']:>24} {m['latency_us']:>10.2f}us "
              f"{m['bar_mmio']:>10}")
    print(f"{'engine batched floor':>24} {'-':>12} {floor:>10}")
    print()
    print(render(verdicts))
    return 0 if ok else 1
