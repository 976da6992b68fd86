"""End-to-end tests for ``python -m repro monitor``."""

import json
import os

from repro.telemetry.cli import main as monitor_main


def test_pingpong_quick_passes_and_prints_verdicts(capsys):
    rc = monitor_main(["pingpong", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pingpong dev2dev-direct" in out
    assert "telemetry:" in out
    assert "samples @" in out
    assert "pass" in out


def test_no_telemetry_runs_bare(capsys):
    rc = monitor_main(["pingpong", "--quick", "--no-telemetry"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pingpong dev2dev-direct" in out
    assert "telemetry:" not in out


def test_verify_non_perturbation(capsys):
    rc = monitor_main(["pingpong", "--quick", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[PASS] non-perturbation" in out


def test_force_breach_exits_1_and_writes_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "artifacts")
    rc = monitor_main(["pingpong", "--quick", "--force-breach",
                       "--out", out_dir])
    out = capsys.readouterr().out
    assert rc == 1
    assert "breach" in out

    for name in ("timeseries.json", "metrics.prom", "slo-report.json",
                 "flight-record-0.json"):
        assert os.path.exists(os.path.join(out_dir, name)), name

    with open(os.path.join(out_dir, "slo-report.json")) as fh:
        report = json.load(fh)
    assert any(v["status"] == "breach" for v in report["objectives"])
    assert report["dumps"] >= 1

    with open(os.path.join(out_dir, "flight-record-0.json")) as fh:
        dump = json.load(fh)
    assert dump["reason"].startswith("slo:")
    assert "spans" in dump and "counters" in dump

    with open(os.path.join(out_dir, "timeseries.json")) as fh:
        ts = json.load(fh)
    assert "sim.events" in ts["series"]

    with open(os.path.join(out_dir, "metrics.prom")) as fh:
        prom = fh.read()
    assert "repro_" in prom and "_total" in prom


def test_custom_slo_spec(capsys):
    rc = monitor_main(["pingpong", "--quick", "--no-presets",
                       "--slo", "total:sim.events>=1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "total:sim.events" in out    # the custom objective was evaluated


def test_faults_breaches_and_reconciles(tmp_path, capsys):
    out_dir = str(tmp_path / "faults")
    rc = monitor_main(["faults", "--quick", "--loss", "0.05",
                       "--reconcile", "--out", out_dir])
    out = capsys.readouterr().out
    # Seeded loss trips the zero-budget fault objectives.
    assert rc == 1
    assert "breach" in out
    assert "[PASS] dump reconciliation" in out
    assert os.path.exists(os.path.join(out_dir, "flight-record-0.json"))


def test_quick_keeps_an_explicit_node_count(capsys):
    assert monitor_main(["collectives", "--quick", "--nodes", "8"]) == 0
    assert "all-reduce N=8 " in capsys.readouterr().out
