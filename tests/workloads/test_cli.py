"""``python -m repro workloads`` — verdicts, artifacts, and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.errors import BenchmarkError
from repro.workloads import WorkloadRun
from repro.workloads.cli import main

QUICK = ["--quick", "--workload", "psfanin", "--mode", "hostControlled"]


def test_quick_cell_passes(capsys):
    assert main(QUICK) == 0
    out = capsys.readouterr().out
    assert "[PASS] zero-cost-bit-identical" in out
    assert "[PASS] deterministic-replay" in out
    assert "[PASS] results-exact" in out
    assert "[PASS] open-p99-above-closed" in out
    assert "[PASS] telemetry-reconcile" in out
    assert "[FAIL]" not in out
    # No 0.85x point is at most 0.5x or past 1x: those checks judge
    # nothing and are not emitted.
    assert "keeps-up-below-knee" not in out
    assert "saturates-past-service-rate" not in out


def test_json_document(capsys):
    assert main(QUICK + ["--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] and not doc["breached"]
    assert doc["saturation"] == [0.85]
    (cell,) = doc["cells"]
    assert cell["workload"] == "psfanin"
    assert cell["service_rate"] == 1.0 / cell["closed"]["mean_service"]
    (point,) = cell["open"]
    assert point["fraction"] == 0.85
    assert point["rate"] == 0.85 * cell["service_rate"]
    assert point["reconcile"]["ok"]
    assert point["result"]["p99"] >= cell["closed"]["p99"]
    assert all(v["ok"] for v in doc["verdicts"])


def test_force_breach_dumps_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(QUICK + ["--force-breach", "--out", str(out)]) == 1
    assert (out / "slo-report.json").stat().st_size > 0
    assert (out / "flight-record-0.json").stat().st_size > 0
    report = json.loads((out / "slo-report.json").read_text())
    assert report["breached"]
    assert report["ok"]     # forced breach is an SLO event, not a bug
    capsys.readouterr()


def test_knee_report(capsys):
    assert main(QUICK + ["--saturation", "0.5,1.2", "--requests", "8"]) == 0
    out = capsys.readouterr().out
    assert "saturation knee (psfanin/hostControlled)" in out
    assert out.count("(eff ") == 2
    assert "[PASS] keeps-up-below-knee" in out
    assert "[PASS] saturates-past-service-rate" in out


def test_bad_fraction_is_rejected_before_any_run(monkeypatch):
    def fail(self, limit=600.0):
        raise AssertionError("a run started before the grid was validated")

    monkeypatch.setattr(WorkloadRun, "execute", fail)
    with pytest.raises(BenchmarkError, match="finite and > 0, got 0.0"):
        main(QUICK + ["--saturation", "0.9,0"])


def test_custom_slo_breaches(capsys):
    # An impossible tail bound must breach and exit 1.
    rc = main(QUICK + ["--no-presets", "--slo",
                       "p99:span.workload.request<1e-12"])
    capsys.readouterr()
    assert rc == 1


def test_faulted_cell_still_verifies(capsys):
    assert main(QUICK + ["--loss", "0.03"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_bad_selection_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--workload", "btree"])
    assert exc.value.code == 2
    capsys.readouterr()
