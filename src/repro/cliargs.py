"""Argument types shared by the subcommands' parsers.

A bad flag value is a usage error: argparse reports it on the
subcommand's usage line and exits 2, like any other malformed command
line.  Exit 1 is a failed verdict, or an SLO breach for ``monitor`` and
``workloads``; those two and ``critpath`` exit 2 on a failed proof
obligation instead (README, "Checks and exit codes").
"""

from __future__ import annotations

import argparse
from typing import Callable, Optional, Sequence


def csv_list(item: Callable[[str], object] = str,
             choices: Optional[Sequence[str]] = None,
             ) -> Callable[[str], tuple]:
    """An argparse ``type=`` for a non-empty comma-separated list of
    ``item`` values (each one of ``choices``, when given)."""
    def parse(text: str) -> tuple:
        try:
            values = tuple(item(v.strip()) for v in text.split(",")
                           if v.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad list {text!r}") from None
        if not values:
            raise argparse.ArgumentTypeError(f"empty list {text!r}")
        for value in values:
            if choices is not None and value not in choices:
                raise argparse.ArgumentTypeError(
                    f"unknown value {value!r} (choose from: "
                    f"{', '.join(choices)})")
        return values
    return parse
