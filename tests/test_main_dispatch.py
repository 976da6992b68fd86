"""The ``python -m repro`` subcommand registry and its dispatch rules."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.__main__ import COMMANDS, main, render_command_table

EXPECTED = {"report", "trace", "bench", "collectives", "faults", "engine",
            "monitor", "triggered", "mpi", "workloads", "critpath", "fabrics"}


def test_registry_covers_every_subcommand():
    assert set(COMMANDS) == EXPECTED
    for name, (loader, description) in COMMANDS.items():
        assert callable(loader)
        assert description


def test_command_table_lists_everything():
    table = render_command_table()
    for name, (_loader, description) in COMMANDS.items():
        assert name in table
        assert description.split()[0] in table


def test_unknown_command_prints_table_and_exits_2(capsys):
    assert main(["definitely-not-a-command"]) == 2
    err = capsys.readouterr().err
    assert "unknown command" in err
    assert "workloads" in err           # the table came with the error


def test_unknown_command_via_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "definitely-not-a-command"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "unknown command" in proc.stderr
    assert "commands:" in proc.stderr


def test_dispatch_reaches_the_loader(capsys):
    calls = []
    original = COMMANDS["workloads"]
    try:
        COMMANDS["workloads"] = (lambda argv: calls.append(argv) or 0,
                                 original[1])
        assert main(["workloads", "--quick"]) == 0
    finally:
        COMMANDS["workloads"] = original
    assert calls == [["--quick"]]
