"""The collectives benchmark driver, CLI, trace reconciliation, and the
all-reduce scaling analysis."""

import json

import pytest

from repro.analysis.collectives import (
    allreduce_scaling,
    render_scaling,
    scaling_report,
)
from repro.collectives import CollectiveMode, build_communicator, run_collective
from repro.collectives.bench import render_results
from repro.collectives.cli import main as cli_main, reconcile_trace, run_traced_collective
from repro.obs import SpanTracer
from repro.obs.export import chrome_trace_events, validate_chrome_trace


def test_result_accounting():
    cluster, comm = build_communicator(4, 64)
    r = run_collective(cluster, comm, "all-gather", 64,
                       iterations=3, warmup=1)
    assert r.correct
    assert r.iterations == 3
    assert r.point.latency > 0
    # 4 ranks x 3 steps x 64B x 3 iterations of injected payload.
    assert r.bandwidth.bytes_moved == 4 * 3 * 64 * 3
    assert r.bandwidth.elapsed == pytest.approx(r.point.latency * 3)
    table = render_results([r])
    assert "all-gather" in table and "OK" in table


def test_traced_run_reconciles_within_one_percent():
    tracer, result = run_traced_collective(
        "all-reduce", 4, 64, CollectiveMode.POLL_ON_GPU, "auto",
        iterations=3, warmup=1)
    assert result.correct
    recon = reconcile_trace(tracer, "all-reduce", result)
    assert recon["ok"], recon
    assert recon["rel_err"] <= 0.01
    # The trace itself must be structurally loadable.
    events = chrome_trace_events(tracer)
    validate_chrome_trace(events)
    phase_spans = [s for s in tracer.spans
                   if s.category == "phase" and s.name == "all-reduce"]
    assert len(phase_spans) == result.iterations


def test_traced_run_direct_mode():
    tracer, result = run_traced_collective(
        "barrier", 3, 64, CollectiveMode.DIRECT, "auto",
        iterations=2, warmup=1)
    assert result.correct
    assert reconcile_trace(tracer, "barrier", result)["ok"]


def test_cli_quick_sweep(capsys):
    assert cli_main(["--quick"]) == 0
    out = capsys.readouterr().out
    assert "all-reduce" in out and "barrier" in out
    assert "FAIL" not in out


def test_cli_trace_export(tmp_path, capsys):
    out_path = tmp_path / "coll.json"
    rc = cli_main(["--trace", str(out_path), "--op", "all-reduce",
                   "--nodes", "3", "--sizes", "64",
                   "--iterations", "2", "--warmup", "1"])
    assert rc == 0
    doc = json.loads(out_path.read_text())
    validate_chrome_trace(doc["traceEvents"])
    out = capsys.readouterr().out
    assert "[PASS] reconcile all-reduce: " in out and "[FAIL]" not in out


def test_cli_rejects_unknown_op():
    with pytest.raises(SystemExit):
        cli_main(["--op", "transpose"])


def test_allreduce_scaling_analysis():
    points = allreduce_scaling(node_counts=(2, 4), iterations=2, warmup=1)
    report = scaling_report(points)
    assert report["steps_ok"]
    assert report["numerics_ok"]
    assert report["ratio_ok"], [p.step_ratio for p in points]
    assert [p.steps for p in points] == [2, 6]
    text = render_scaling(points)
    assert "OK" in text and "FAIL" not in text
