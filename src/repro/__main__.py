"""``python -m repro`` — the command-line entry point.

Subcommands are dispatched through :data:`COMMANDS`, a registry mapping
each name to a lazy loader plus a one-line description (printed by the
help table).  An unknown subcommand prints the table and exits 2 instead
of falling through to the default report with a confusing argparse error.
Bare flags (``python -m repro --scale 2``) still reach ``report``, which
stays the default command.  A :class:`~repro.errors.ReproError` (a rejected
configuration, a failed run) ends any command with one ``error:`` line on
stderr and exit status 2, never a traceback.
"""

import sys
from typing import Callable, Dict, List, Optional, Tuple

from .errors import ReproError


def _report(argv: List[str]) -> int:
    from .analysis.report import main
    return main(argv)


def _trace(argv: List[str]) -> int:
    from .obs.cli import main
    return main(argv)


def _bench(argv: List[str]) -> int:
    from .perf.cli import bench_main
    return bench_main(argv)


def _collectives(argv: List[str]) -> int:
    from .collectives.cli import main
    return main(argv)


def _faults(argv: List[str]) -> int:
    from .faults.cli import main
    return main(argv)


def _engine(argv: List[str]) -> int:
    from .engine.cli import main
    return main(argv)


def _monitor(argv: List[str]) -> int:
    from .telemetry.cli import main
    return main(argv)


def _triggered(argv: List[str]) -> int:
    from .triggered.cli import main
    return main(argv)


def _mpi(argv: List[str]) -> int:
    from .mpi.cli import main
    return main(argv)


def _workloads(argv: List[str]) -> int:
    from .workloads.cli import main
    return main(argv)


def _critpath(argv: List[str]) -> int:
    from .causal.cli import main
    return main(argv)


def _fabrics(argv: List[str]) -> int:
    from .fabrics.cli import main
    return main(argv)


#: name -> (loader, one-line description).  Loaders import lazily so
#: ``python -m repro bench`` never pays for the telemetry stack and vice
#: versa.
COMMANDS: Dict[str, Tuple[Callable[[List[str]], int], str]] = {
    "report": (_report, "print the full reproduction report (default)"),
    "trace": (_trace, "one traced ping-pong: Chrome trace + phase cost "
                      "profile"),
    "bench": (_bench, "record/check benchmark-regression baselines"),
    "collectives": (_collectives, "N-node collective sweeps + traced runs"),
    "faults": (_faults, "chaos sweeps under deterministic fault injection"),
    "engine": (_engine, "offload-engine ablation sweep + invariants"),
    "monitor": (_monitor, "run a scenario under the live telemetry plane"),
    "triggered": (_triggered, "counter-fired descriptor chains vs host "
                              "assist"),
    "mpi": (_mpi, "tagged ping-pong + triggered iallreduce ablation"),
    "workloads": (_workloads, "open-loop service traffic: app workloads "
                              "x control modes, p50/p99/p999 vs SLOs"),
    "critpath": (_critpath, "causal critical paths per request: exact "
                            "blame, stragglers, 0% reconciliation"),
    "fabrics": (_fabrics, "scale-out topologies: ring vs tree vs halving "
                          "crossovers, credit congestion, canaries"),
}


def render_command_table() -> str:
    width = max(len(name) for name in COMMANDS) + 2
    lines = ["usage: python -m repro <command> [options]", "", "commands:"]
    for name, (_fn, desc) in COMMANDS.items():
        lines.append(f"  {name.ljust(width)}{desc}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0].startswith("-"):
        # Bare flags (--scale, --trace) belong to the default report.
        name, rest = "report", argv
    else:
        name, rest = argv[0], argv[1:]
    entry = COMMANDS.get(name)
    if entry is None:
        print(f"unknown command {name!r}\n", file=sys.stderr)
        print(render_command_table(), file=sys.stderr)
        return 2
    try:
        return entry[0](rest)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
