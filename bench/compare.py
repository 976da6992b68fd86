#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py --parent runs/parent-*/*.json \\
                             --change runs/change-*/*.json

Each file is a result ``bench/run.py`` wrote to its ``--out`` directory.
Files pair up per workload in the order given: the i-th parent file of a
workload with its i-th change file, so give them in the order the runs
were made, alternating which side ran first.  For every workload and
metric it prints each side's median and quartiles, the fraction of pairs
the change won, and a verdict:

* a metric whose values repeat exactly on both sides (a count, or a
  modeled quantity) is compared exactly;
* improved: the change wins at least nine tenths of the pairs (ties count
  for neither) and its median beats the parent's by more than the
  parent's quartile spread;
* unresolved: the parent's quartile spread, as a share of its median, is
  wider than the metric's bound, and not every change run beats every
  parent run — or the change fails more operations than the parent;
* worse: the change's median is worse than the parent's by more than the
  bound in ``BENCHMARK.json`` (per-layer metrics have no bound: worse is
  the mirror image of improved);
* unchanged: otherwise.

Exits 1 if any end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> str:
    """The verdict on one metric; ``parent[i]`` pairs with ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    if len(set(parent)) == 1 and len(set(change)) == 1:
        gain = sign * (change[0] - parent[0])
        return "improved" if gain > 0 else "worse" if gain < 0 \
            else "unchanged"
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    gain = sign * (cm - pm)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    if wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved"
    if bound is None:
        if losses >= WIN_SHARE * len(pairs) and -gain > spread:
            return "worse"
        return "unchanged" if abs(gain) <= spread else "unresolved"
    every_run_better = all(sign * (c - p) > 0
                           for c in change for p in parent)
    if pm and spread / abs(pm) > bound and not every_run_better:
        return "unresolved"
    if pm and -gain > bound * abs(pm):
        return "worse"
    return "unchanged"


def _load(paths: List[Path]) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for path in paths:
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], []).append(result)
    return runs


def _values(results: List[dict], section: str, metric: str) -> List[float]:
    return [r[section][metric]["value"] for r in results
            if r.get(section) and metric in r[section]]


def _quartiles(values: Sequence[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def compare(parent_paths: List[Path], change_paths: List[Path],
            spec: dict, out=sys.stdout) -> int:
    parent, change = _load(parent_paths), _load(change_paths)
    sections = (("end_to_end", spec["end_to_end"]),
                ("per_layer", spec["per_layer"]))
    worse = False
    for workload in sorted(set(parent) | set(change)):
        ps, cs = parent.get(workload, []), change.get(workload, [])
        n = min(len(ps), len(cs))
        p_failed = sum(r["failed"] for r in ps[:n])
        c_failed = sum(r["failed"] for r in cs[:n])
        print(f"== {workload}: {n} pairs; failed parent "
              f"{p_failed}/{sum(r['attempted'] for r in ps[:n])}, change "
              f"{c_failed}/{sum(r['attempted'] for r in cs[:n])} ==",
              file=out)
        if n < 2:
            print("  need at least two pairs", file=out)
            continue
        if n < 10:
            print(f"  only {n} pairs; a claim needs at least ten", file=out)
        print(f"  {'metric':<28} {'parent median [q1, q3]':>38} "
              f"{'change median [q1, q3]':>38} {'won':>6}  verdict",
              file=out)
        for section, metrics in sections:
            for m in metrics:
                p = _values(ps[:n], section, m["name"])
                c = _values(cs[:n], section, m["name"])
                if len(p) != n or len(c) != n:
                    continue
                v = verdict(p, c, m["better"], m.get("bound"))
                if v == "improved" and c_failed > p_failed:
                    v = "unresolved"   # a gain does not count over failures
                if v == "worse" and section == "end_to_end":
                    worse = True
                sign = 1.0 if m["better"] == "higher" else -1.0
                won = sum(sign * (b - a) > 0 for a, b in zip(p, c))
                print(f"  {m['name']:<28} {_quartiles(p):>38} "
                      f"{_quartiles(c):>38} {won:>3}/{n:<2}  {v}", file=out)
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, nargs="+", required=True,
                        help="result files of the parent commit, in run "
                             "order")
    parser.add_argument("--change", type=Path, nargs="+", required=True,
                        help="result files of the change, in run order")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    return compare(args.parent, args.change, spec)


if __name__ == "__main__":
    sys.exit(main())
