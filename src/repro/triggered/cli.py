"""``python -m repro triggered`` — stage a ring exchange once, fire it with
one doorbell per node, and compare its control path against host assist.

The runs (:mod:`repro.triggered.bench`) and their verdicts are the
``triggered-relay`` scenario's (:mod:`repro.perf.scenarios`), on this
command's ring size, put size and seed; exit status is non-zero if any
verdict fails:

* both variants move the right bytes,
* the triggered run posts ZERO work requests through the BAR after staging,
* exactly one counter doorbell per node,
* every staged chain completes.
"""

from __future__ import annotations

import argparse
import json

from ..analysis.invariants import render, to_json
from ..obs.export import write_chrome_trace
from ..perf.scenarios import triggered_relay


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro triggered",
        description="Staged ring exchange fired by counter doorbells, "
                    "vs host-assisted control.")
    parser.add_argument("--nodes", type=int, default=4,
                        help="ring size (default: 4)")
    parser.add_argument("--size", type=int, default=4096,
                        help="bytes per put (default: 4096)")
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI (2 nodes, 256B)")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulator seed (default: 7)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--out", default=None,
                        help="write the triggered run as a Chrome trace")
    args = parser.parse_args(argv)

    nodes = 2 if args.quick else args.nodes
    size = 256 if args.quick else args.size

    result = triggered_relay(nodes, size, args.seed)
    if args.out:
        write_chrome_trace(result.runs["tracer"], args.out)
    trig, host = result.runs["triggered"], result.runs["host_assist"]
    verdicts = result.verdicts
    ok = all(v.ok for v in verdicts)

    if args.json:
        print(json.dumps({
            "nodes": nodes, "size": size, "seed": args.seed,
            "triggered": trig, "host_assist": host,
            "verdicts": to_json(verdicts),
            "ok": ok,
        }, indent=2))
        return 0 if ok else 1

    print(f"Triggered ring exchange: {nodes} nodes, {size} B per put, "
          f"2 rounds")
    print("=" * 60)
    rows = [
        ("control path", "triggered chains", "host assist"),
        ("WR posts via BAR", str(trig["host_wr_posts"]),
         str(host["wr_posts"])),
        ("counter doorbells", str(trig["doorbells"]),
         str(host["doorbells"])),
        ("completion time", f"{trig['elapsed_us']:.2f} us",
         f"{host['elapsed_us']:.2f} us"),
    ]
    for label, t, h in rows:
        print(f"{label:>20} {t:>18} {h:>14}")
    print()
    print(render(verdicts))
    return 0 if ok else 1
