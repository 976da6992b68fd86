"""The collectives benchmark driver, CLI, and the ``collectives-allreduce``
scenario's trace reconcile, step counts and per-step cost."""

import json

import pytest

from repro.collectives import CollectiveMode, build_communicator, run_collective
from repro.collectives.bench import render_results
from repro.collectives.cli import main as cli_main
from repro.errors import BenchmarkError
from repro.obs.export import chrome_trace_events, validate_chrome_trace
from repro.perf import scenarios
from repro.perf.scenarios import STEP_COST_BAND, collectives_allreduce


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


def _verdicts(res):
    return {v.name: v for v in res.verdicts}


def test_traced_run_reconciles_within_one_percent():
    res = collectives_allreduce(modes=(CollectiveMode.POLL_ON_GPU,),
                                iterations=3, warmup=1)
    [result] = res.runs["results"]
    assert result.correct
    verdict = _verdicts(res)["span-reconcile-all-reduce"]
    assert verdict.ok, verdict.detail
    assert "(0.00% off" in verdict.detail
    # The trace itself must be structurally loadable.
    tracer = res.runs["tracer"]
    validate_chrome_trace(chrome_trace_events(tracer))
    phase_spans = [s for s in tracer.spans
                   if s.category == "phase" and s.name == "all-reduce"]
    assert len(phase_spans) == result.iterations


def test_traced_run_direct_mode():
    res = collectives_allreduce(ops=("barrier",),
                                modes=(CollectiveMode.DIRECT,), nodes=(3,),
                                iterations=2, warmup=1)
    assert res.runs["results"][0].correct
    # A barrier is no all-reduce and no pollOnGPU ring: neither the step
    # counts nor the step cost judge it.
    assert list(_verdicts(res)) == ["correct", "span-reconcile-barrier"]
    assert all(v.ok for v in res.verdicts), res.verdicts


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
    assert "[PASS] span-reconcile-all-reduce: " in out and "[FAIL]" not in out


def test_cli_rejects_unknown_op():
    with pytest.raises(SystemExit):
        cli_main(["--op", "transpose"])


def test_allreduce_scaling_analysis():
    res = collectives_allreduce(modes=(CollectiveMode.POLL_ON_GPU,),
                                nodes=(2, 4), iterations=2, warmup=1)
    verdicts = _verdicts(res)
    for name in ("correct", "steps-exact", "step-cost"):
        assert verdicts[name].ok, verdicts[name].detail
    assert [r.steps for r in res.runs["results"]] == [2, 6]
    lo, hi = STEP_COST_BAND
    ratios = res.runs["step_costs"]
    assert set(ratios) == {(2, 64), (4, 64)}
    assert all(lo <= x <= hi for x in ratios.values()), ratios


def test_invalid_point_rejected_before_any_point_runs(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a point ran before the grid was validated")

    monkeypatch.setattr(scenarios, "run_collective", no_run)
    with pytest.raises(BenchmarkError, match="multiple of 8, got 12"):
        collectives_allreduce(nodes=(2, 8), sizes=(64, 12))
    with pytest.raises(BenchmarkError, match="multiple of 8, got 12"):
        cli_main(["--nodes", "2,8", "--sizes", "64,12"])
