"""The chaos harness CLI (``python -m repro faults``) and its checks."""

import pytest

from repro.__main__ import main as repro_main
from repro.analysis.faults import (
    ChaosPoint,
    monotonic_check,
    render_chaos,
    zero_cost_check,
)
from repro.collectives.comm import CollectiveMode
from repro.faults.cli import main as faults_main


@pytest.mark.quick
def test_quick_sweep_passes(capsys):
    assert faults_main(["--quick"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] chaos results exact: " in out
    assert "[PASS] zero-cost check: bit-identical" in out
    assert "[PASS] monotonic degradation: " in out
    assert "[FAIL]" not in out


def test_traced_run_reconciles(tmp_path, capsys):
    trace = tmp_path / "chaos.json"
    assert faults_main(["--loss", "0.02", "--sizes", "64",
                        "--mode", "dev2dev-pollOnGPU", "--nodes", "3",
                        "--iterations", "2", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "[PASS] retransmit reconcile: " in out
    assert trace.exists() and trace.stat().st_size > 0


def test_dispatch_through_python_m_repro(capsys):
    assert repro_main(["faults", "--quick"]) == 0
    assert "[FAIL]" not in capsys.readouterr().out


def test_bad_loss_list_rejected():
    with pytest.raises(SystemExit):
        faults_main(["--loss", "nope"])
    with pytest.raises(SystemExit):
        faults_main(["--loss", "1.5"])


def _point(mode, size, loss, latency, goodput):
    return ChaosPoint(op="all-reduce", mode=mode, nodes=4, size=size,
                      loss=loss, corrupt=0.0, correct=True, latency=latency,
                      goodput=goodput, retransmits=0, ack_replays=0,
                      drops=0, corruptions=0, seed=1)


def test_monotonic_check_flags_improvements():
    good = [_point("m", 64, 0.0, 10e-6, 50.0),
            _point("m", 64, 0.01, 12e-6, 45.0),
            _point("m", 64, 0.02, 20e-6, 30.0)]
    assert monotonic_check(good)["ok"]
    bad = good + [_point("m", 64, 0.05, 2e-6, 200.0)]  # faster under MORE loss
    result = monotonic_check(bad)
    assert not result["ok"]
    assert len(result["violations"]) == 2  # latency AND goodput improved
    assert "x base" in render_chaos(bad)


def test_zero_cost_holds_for_direct_mode():
    verdict, bare_latency = zero_cost_check(CollectiveMode.DIRECT, 64,
                                            nodes=3, iterations=2)
    assert verdict.ok, verdict
    assert bare_latency > 0
