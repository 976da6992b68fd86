"""The one report path: the shared Verdict rules, and every subcommand that
checks something printing, serializing and exiting through them."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.analysis import invariants as inv
from repro.analysis.invariants import Verdict, identical, reconciles
from repro.causal.critpath import RunAnalysis
from repro.mpi.bench import engine_floor_checks
from repro.perf.scenarios import forced_congestion_blame

LINE = re.compile(r"^\[(PASS|FAIL)\] ([^:]+): ")


# -- the rules ------------------------------------------------------------------

def test_reconciles_expected_zero_needs_observed_zero():
    assert reconciles("c", 0, 0).ok
    assert not reconciles("c", 1e-12, 0).ok


def test_reconciles_exactly_one_percent_off_passes():
    assert reconciles("c", 101, 100).ok
    assert reconciles("c", 99, 100).ok
    assert not reconciles("c", 101.01, 100).ok


def test_identical_names_first_differing_field():
    v = identical("replay", {"a": 1, "b": 2, "c": 3},
                  {"a": 1, "b": 5, "c": 4})
    assert not v.ok
    assert v.detail.startswith("b differs")
    v = identical("replay", {"lat": (1.0, 2.0, 3.0)},
                  {"lat": (1.0, 2.0, 3.5)})
    assert not v.ok and v.detail.startswith("lat[2] differs")
    assert identical("replay", {"a": 1, "lat": (1, 2)},
                     {"a": 1, "lat": (1, 2)}).ok


def test_render_and_json_forms():
    verdicts = [Verdict("good", True, "fine"), Verdict("bad", False, "no")]
    assert inv.render(verdicts) == "[PASS] good: fine\n[FAIL] bad: no"
    assert inv.to_json(verdicts) == [
        {"name": "good", "ok": True, "detail": "fine"},
        {"name": "bad", "ok": False, "detail": "no"}]


def test_engine_floor_host_mode_at_floor_fails():
    modes = [{"mode": "a", "bar_mmio": 132, "wrs_posted": 132},
             {"mode": "b", "bar_mmio": 17, "wrs_posted": 132}]
    floor, below, above = engine_floor_checks(0, modes)
    assert floor == 17
    assert below[0]
    assert not above[0] and "b 17" in above[1]
    modes[1]["bar_mmio"] = 18
    assert engine_floor_checks(0, modes)[2][0]


def test_congestion_reconcile_failure_is_its_own_verdict(monkeypatch):
    monkeypatch.setattr(RunAnalysis, "reconcile", lambda self, times: {
        "ok": False, "max_error": 0.5, "max_residual": 0.0,
        "requests": []})
    verdicts, share = forced_congestion_blame()
    assert [v.ok for v in verdicts] == [False, True]
    assert 0.0 < share <= 1.0


def test_crossover_is_judged_only_where_it_is_claimed(capsys):
    """rh beating the ring is a fat-tree and torus claim: a dragonfly-only
    grid prints no verdict for it rather than an empty pass."""
    assert main(["fabrics", "--topologies", "dragonfly", "--nodes", "16",
                 "--iterations", "1"]) == 0
    names = [m.group(2) for m in map(LINE.match,
                                     capsys.readouterr().out.splitlines())
             if m]
    assert "correct" in names
    assert "rh-beats-ring" not in names


# -- every subcommand reports through them -----------------------------------------

def _fail_agreement(monkeypatch):
    monkeypatch.setattr(inv, "_agreement", lambda o, e, t: (False, "forced"))


def _fail_retransmit_count(monkeypatch):
    from repro.analysis import faults
    monkeypatch.setattr(faults, "counts_match",
                        lambda name, a, b: Verdict(name, False, "forced"))


def _fail_triggered(monkeypatch):
    from repro.perf import scenarios
    real = scenarios.run_host_assist
    monkeypatch.setattr(scenarios, "run_host_assist",
                        lambda *a, **k: {**real(*a, **k), "data_ok": False})


def _fail_non_perturbation(monkeypatch):
    from repro.telemetry import cli
    monkeypatch.setattr(cli, "identical",
                        lambda name, a, b: Verdict(name, False, "forced"))


def _fail_congestion(monkeypatch):
    real = RunAnalysis.reconcile
    monkeypatch.setattr(RunAnalysis, "reconcile",
                        lambda self, times: {**real(self, times), "ok": False})


#: name -> (argv at quick size, --json argv (``{json}`` is a file path;
#: None: the command has no --json), exit status on a failed verdict, how
#: to force one: a patch, or extra argv).
COMMANDS = {
    "engine": (["engine", "--quick", "--per-connection", "16",
                "--iterations", "6", "--warmup", "1"], None, 1,
               _fail_agreement),
    "mpi": (["mpi", "--quick"], ["mpi", "--quick", "--json"], 1,
            ["--force-mismatch"]),
    "triggered": (["triggered", "--quick"], ["triggered", "--quick", "--json"],
                  1, _fail_triggered),
    "workloads": (["workloads", "--quick", "--workload", "psfanin",
                   "--mode", "hostControlled"],
                  ["workloads", "--quick", "--workload", "psfanin",
                   "--mode", "hostControlled", "--json"], 2, _fail_agreement),
    "fabrics": (["fabrics", "--force-congestion"],
                ["fabrics", "--force-congestion", "--json", "{json}"], 1,
                _fail_congestion),
    "faults": (["faults", "--quick", "--trace", "{trace}"], None, 1,
               _fail_retransmit_count),
    "collectives": (["collectives", "--trace", "{trace}", "--op",
                     "all-reduce", "--nodes", "3", "--sizes", "64",
                     "--iterations", "2", "--warmup", "1"], None, 1,
                    _fail_agreement),
    "monitor": (["monitor", "pingpong", "--quick", "--verify"], None, 2,
                _fail_non_perturbation),
    "critpath": (["critpath", "pingpong", "--modes", "hostControlled",
                  "--requests", "1", "--verify", "--reconcile"],
                 ["critpath", "pingpong", "--modes", "hostControlled",
                  "--requests", "1", "--verify", "--reconcile", "--json"],
                 2, ["--expect-straggler", "7"]),
    "trace": (["trace", "--iterations", "4", "--warmup", "1", "--out",
               "{trace}"],
              ["trace", "--iterations", "4", "--warmup", "1", "--out",
               "{trace}", "--json", "{json}"], 1, _fail_agreement),
}


def _run(argv, tmp_path, capsys):
    paths = {"trace": str(tmp_path / "trace.json"),
             "json": str(tmp_path / "report.json")}
    rc = main([a.format(**paths) for a in argv])
    out = capsys.readouterr().out
    names = [m.group(2) for m in map(LINE.match, out.splitlines()) if m]
    return rc, out, names, paths["json"]


def _json_verdicts(out: str, path: str):
    doc = json.load(open(path)) if os.path.exists(path) else json.loads(out)
    return doc["verdicts"]


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_verdict_lines_json_and_exit_status(command, tmp_path, capsys):
    argv, json_argv, _fail_rc, _force = COMMANDS[command]
    rc, out, names, _ = _run(argv, tmp_path, capsys)
    assert rc == 0, out
    assert names, out
    for line in out.splitlines():
        if line.startswith("["):
            assert LINE.match(line), line
    if json_argv is not None:
        rc, out, _, path = _run(json_argv, tmp_path, capsys)
        assert rc == 0
        verdicts = _json_verdicts(out, path)
        assert [v["name"] for v in verdicts] == names
        assert all(set(v) == {"name", "ok", "detail"} for v in verdicts)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_failed_verdict_sets_the_exit_status(command, tmp_path, capsys,
                                             monkeypatch):
    argv, _json_argv, fail_rc, force = COMMANDS[command]
    if callable(force):
        force(monkeypatch)
    else:
        argv = argv + force
    rc, out, _, _ = _run(argv, tmp_path, capsys)
    assert rc == fail_rc, out
    assert "[FAIL] " in out


def test_slo_breach_exits_1_not_2(tmp_path, capsys):
    assert main(["monitor", "pingpong", "--quick", "--force-breach"]) == 1
    assert main(COMMANDS["workloads"][0] + ["--force-breach"]) == 1
    capsys.readouterr()


# -- a ReproError ends a subcommand with one line -------------------------------------

@pytest.mark.parametrize("argv", [
    ["trace", "--size", "0", "--out", os.devnull],
    ["collectives", "--sizes", "12"],
    ["collectives", "--nodes", "2,8", "--sizes", "64,12"],
    ["fabrics", "--nodes", "12"],
    ["triggered", "--nodes", "256"],
    ["triggered", "--size", "0"],
    ["critpath", "workloads", "--workload", "trainstep", "--skew", "1:20000"],
    ["critpath", "pingpong", "--skew", "5:20000"],
    ["critpath", "pingpong", "--nodes", "4", "--skew", "3:20000"],
    ["workloads", "--saturation", "nan"],
    ["workloads", "--saturation", "inf"],
    ["workloads", "--saturation", "0.9,0"],
    ["workloads", "--requests", "0"],
    ["monitor", "pingpong", "--iterations", "0"],
    ["monitor", "rate", "--connections", "0"],
    ["monitor", "rate", "--per-connection", "0"],
    ["engine", "--quick", "--iterations", "0"],
    ["engine", "--quick", "--per-connection", "0"],
])
def test_repro_error_is_one_stderr_line(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


# -- a bad flag value is a usage error: exit 2, never 1 ------------------------------

@pytest.mark.parametrize("argv", [
    ["trace", "--mode", "bogus"],
    ["trace", "--json"],
    ["faults", "--loss", "2"],
    ["faults", "--sizes", "x"],
    ["collectives", "--op", "bogus"],
    ["collectives", "--nodes", ","],
    ["fabrics", "--topologies", "bogus"],
    ["fabrics", "--nodes", "x"],
    ["monitor", "pingpong", "--quick", "--recorder-capacity", "0"],
    ["monitor", "pingpong", "--quick", "--capacity", "0"],
    ["monitor", "pingpong", "--quick", "--interval", "0"],
    ["workloads", "--quick", "--interval", "0"],
    ["trace", "--categories", "phase", "--iterations", "4", "--warmup", "1"],
    ["monitor", "pingpong", "--quick", "--interval", "inf"],
    ["workloads", "--quick", "--workload", "psfanin", "--mode",
     "hostControlled", "--interval", "nan"],
])
def test_bad_flag_value_exits_2(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr
