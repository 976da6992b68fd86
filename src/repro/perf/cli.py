"""``python -m repro bench`` — the benchmark-regression CLI.

``bench`` drives the regression harness (:mod:`repro.perf.harness`):

* ``--record`` re-measures the selected scenarios and (re)writes their
  ``BENCH_<NAME>.json`` baselines,
* ``--check`` (the default) re-measures and compares against the
  committed baselines, printing a per-metric diff and exiting nonzero on
  any regression,
* ``--quick`` restricts both to the CI-smoke subset,
* ``--list`` prints the registry.
"""

from __future__ import annotations

import argparse
import datetime
import os
import sys

from .harness import check, record, render_reports
from .scenarios import SCENARIOS, get_scenarios


def _repo_root_default() -> str:
    # src/repro/perf/cli.py -> repository root (where BENCH_*.json live).
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.abspath(os.path.join(here, "..", "..", ".."))


def bench_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Record or check benchmark-regression baselines "
                    "(BENCH_<SCENARIO>.json).")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--record", action="store_true",
                        help="re-measure and (re)write baselines")
    action.add_argument("--check", action="store_true",
                        help="re-measure and compare against baselines "
                             "(default action)")
    action.add_argument("--list", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="restrict to one scenario (repeatable; "
                             "default: all)")
    parser.add_argument("--quick", action="store_true",
                        help="only scenarios marked quick (CI smoke set)")
    parser.add_argument("--dir", default=None, metavar="PATH",
                        help="baseline directory (default: repository "
                             "root)")
    parser.add_argument("--strict-wallclock", action="store_true",
                        help="treat wall-clock collapses as regressions, "
                             "not warnings")
    parser.add_argument("--verbose", action="store_true",
                        help="also print metrics that match their "
                             "baseline")
    args = parser.parse_args(argv)

    if args.list:
        width = max(len(n) for n in SCENARIOS)
        for name, s in SCENARIOS.items():
            quick = "quick" if s.quick else "full "
            print(f"{name.ljust(width)}  [{quick}]  {s.description}")
        return 0

    try:
        scenarios = get_scenarios(args.scenario, quick_only=args.quick)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    root = args.dir or _repo_root_default()

    if args.record:
        stamp = (datetime.datetime.now(datetime.timezone.utc)
                 .strftime("%Y-%m-%dT%H:%M:%SZ"))
        for s in scenarios:
            path = record(s, root, recorded_at=stamp)
            print(f"recorded {s.name} -> {path}")
        return 0

    reports = [check(s, root, strict_wallclock=args.strict_wallclock)
               for s in scenarios]
    print(render_reports(reports, verbose=args.verbose))
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(bench_main())
