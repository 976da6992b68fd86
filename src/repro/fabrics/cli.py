"""``python -m repro fabrics`` — scale-out fabric sweeps + canaries.

Default: run the ``fabric-allreduce`` and ``fabric-congestion`` scenarios
(:mod:`repro.perf.scenarios`) on this command's grid — the topology x N x
algorithm all-reduce matrix with its verdicts (exact sums, bit-exactness
across schedules, closed-form step counts, the ring->halving crossover,
trace reconcile) and the credit canaries (permutation deadlock freedom,
zero-cost credits, credit blame, adaptive replay) — and print the
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
from typing import List

from ..analysis.invariants import render, to_json
from ..cliargs import csv_list
from ..perf.scenarios import (fabric_allreduce, fabric_congestion,
                              forced_congestion_blame)
from .routing import ROUTINGS
from .topology import TOPOLOGY_KINDS


def _render_tables(results, topologies, nodes, algorithms, elems: int,
                   iterations: int, seed: int) -> List[str]:
    """The crossover tables: p50 all-reduce time (p50 per-phase time) per
    topology, one row per N and one column per schedule."""
    title = (f"Fabric collectives sweep (elems/rank={elems}, "
             f"{iterations} iterations, seed={seed})")
    lines = [title, "=" * len(title)]
    cells = {(r.topology, r.n, r.algorithm): r for r in results}
    for kind in topologies:
        lines.append("")
        lines.append(f"{kind}: p50 all-reduce time (p50 per-phase time)")
        lines.append("N".rjust(6) + "".join(a.rjust(22) for a in algorithms))
        for n in nodes:
            row = f"{n}".rjust(6)
            for algorithm in algorithms:
                r = cells[(kind, n, algorithm)]
                row += (f"{r.p50_time * 1e6:9.1f}us "
                        f"({r.p50_step_time * 1e9:6.0f}ns)").rjust(22)
            lines.append(row)
    return lines


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

    if args.force_congestion:
        verdicts, share = forced_congestion_blame(args.seed, args.routing)
        ok = all(v.ok for v in verdicts)
        print(render(verdicts))
        if args.json:
            with open(args.json, "w") as fh:
                json.dump({"blocked_on_credit_share": share,
                           "verdicts": to_json(verdicts), "ok": ok},
                          fh, indent=2)
        return 0 if ok else 1

    if args.quick:
        topologies, algorithms, nodes = TOPOLOGY_KINDS, ("ring", "rh",
                                                         "tree"), (16, 32)
        elems, iterations = 4, 2
    else:
        topologies, algorithms, nodes = (args.topologies, args.algorithms,
                                         args.nodes)
        elems, iterations = args.elems, args.iterations
    allreduce = fabric_allreduce(topologies, nodes, algorithms,
                                 elems_per_rank=elems, iterations=iterations,
                                 seed=args.seed, routing=args.routing)
    congestion = fabric_congestion(topologies, seed=args.seed,
                                   routing=args.routing)
    results = allreduce.runs["results"]
    verdicts = allreduce.verdicts + congestion.verdicts
    ok = all(v.ok for v in verdicts)

    for line in _render_tables(results, topologies, nodes, algorithms,
                               elems, iterations, args.seed):
        print(line)
    print("")
    print("Acceptance verdicts")
    print("-------------------")
    print(render(verdicts))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({
                "config": {
                    "topologies": list(topologies),
                    "algorithms": list(algorithms),
                    "nodes": list(nodes),
                    "elems_per_rank": elems,
                    "iterations": iterations,
                    "seed": args.seed,
                    "routing": args.routing,
                },
                "results": [{
                    "topology": r.topology, "n": r.n,
                    "algorithm": r.algorithm,
                    "p50_time_us": r.p50_time * 1e6,
                    "p50_step_time_us": r.p50_step_time * 1e6,
                    "steps": r.steps, "phases": r.phases,
                    "packets": r.packets, "correct": r.correct,
                    "events": r.events,
                } for r in results],
                "verdicts": to_json(verdicts),
                "ok": ok,
            }, fh, indent=2)
        print(f"report -> {args.json}")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
