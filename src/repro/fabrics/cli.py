"""``python -m repro fabrics`` — scale-out fabric sweeps + canaries.

Default: run the acceptance sweep (topology x N x algorithm all-reduce
matrix plus the verdict battery: bit-exactness, closed-form step counts,
ring->halving crossover, zero-cost credits, permutation deadlock
freedom, adaptive replay, trace reconcile, credit blame) and print the
crossover tables.  Exit non-zero if any verdict fails.

``--force-congestion`` runs only the congestion canary: a causally
traced recursive-halving all-reduce under ``credits=1`` whose critical
paths must contain ``blocked-on-credit`` segments — the CI check that
congestion is *attributable*, not just simulated.

Examples::

    python -m repro fabrics --quick                # CI smoke (N=16,32)
    python -m repro fabrics --nodes 64,128,256,512 # the paper-scale sweep
    python -m repro fabrics --topologies torus --algorithms ring,rh
    python -m repro fabrics --force-congestion
    python -m repro fabrics --quick --json out.json
"""

from __future__ import annotations

import argparse
import json
import sys

from ..analysis.invariants import render, to_json
from ..cliargs import csv_list
from .routing import ROUTINGS
from .sweep import (SweepConfig, forced_congestion_blame, render_report,
                    run_sweep)
from .topology import TOPOLOGY_KINDS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro fabrics",
        description="Hierarchical scale-out fabrics: topology-aware "
                    "collectives, credit congestion, acceptance verdicts.")
    parser.add_argument("--topologies", default=",".join(TOPOLOGY_KINDS),
                        type=csv_list(choices=TOPOLOGY_KINDS),
                        help=f"comma-separated topology kinds (default: "
                             f"{','.join(TOPOLOGY_KINDS)})")
    parser.add_argument("--algorithms", default="ring,rh,tree",
                        type=csv_list(choices=("ring", "rh", "tree")),
                        help="comma-separated all-reduce schedules "
                             "(default: ring,rh,tree)")
    parser.add_argument("--nodes", default="64,128", type=csv_list(int),
                        help="comma-separated power-of-two rank counts "
                             "(default: 64,128; the paper-scale run is "
                             "64,128,256,512)")
    parser.add_argument("--elems", type=int, default=4,
                        help="vector elements per rank (default: 4)")
    parser.add_argument("--iterations", type=int, default=3,
                        help="measured rounds per point (default: 3)")
    parser.add_argument("--routing", default="minimal", choices=ROUTINGS,
                        help="dragonfly inter-group routing "
                             "(default: minimal)")
    parser.add_argument("--seed", type=int, default=1,
                        help="simulator seed (default: 1)")
    parser.add_argument("--quick", action="store_true",
                        help="small fixed sweep for CI smoke runs "
                             "(N=16,32, 2 iterations)")
    parser.add_argument("--force-congestion", action="store_true",
                        help="run ONLY the forced-congestion canary and "
                             "require blocked-on-credit in the blame")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the full report as JSON")
    args = parser.parse_args(argv)

    if args.quick:
        cfg = SweepConfig(nodes=(16, 32), iterations=2, seed=args.seed,
                          routing=args.routing)
    else:
        cfg = SweepConfig(
            topologies=args.topologies, algorithms=args.algorithms,
            nodes=args.nodes,
            elems_per_rank=args.elems, iterations=args.iterations,
            seed=args.seed, routing=args.routing)

    if args.force_congestion:
        verdicts, share = forced_congestion_blame(cfg)
        ok = all(v.ok for v in verdicts)
        print(render(verdicts))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"blocked_on_credit_share": share,
                           "verdicts": to_json(verdicts), "ok": ok},
                          fh, indent=2)
        return 0 if ok else 1

    report = run_sweep(cfg, progress=lambda m: print(f"  {m}",
                                                     file=sys.stderr))
    print(render_report(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"report -> {args.json}")
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
