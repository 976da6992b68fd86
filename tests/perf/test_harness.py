"""Unit tests for the regression harness — no simulator involved.

Synthetic scenarios with hand-built results exercise every comparison
path: exact sim/count comparison, missing/new metrics, invariant
verdicts, wall-clock direction handling, schema guarding.
"""

import json

import pytest

from repro.perf import (
    SCHEMA_VERSION,
    Metric,
    Scenario,
    ScenarioResult,
    baseline_path,
    check,
    load_baseline,
    record,
    render_reports,
)


def make_scenario(results):
    """A scenario whose run() pops pre-built results off a list."""
    return Scenario(name="synthetic", description="hand-built",
                    run=lambda: results.pop(0))


def result(latency=10.0, events=100, rate=1e6, inv=True, extra=None):
    res = ScenarioResult()
    res.metric("latency_us", latency, unit="us")
    res.metric("events", events, kind="count")
    res.metric("rate", rate, kind="wallclock", unit="events/s")
    res.invariant("shape-holds", (inv, "detail line"))
    if extra:
        res.metric(extra, 1.0)
    return res


def warnings(report):
    return [d for d in report.deviations if d.status == "warning"]


def test_record_then_identical_check_passes(tmp_path):
    s = make_scenario([result(), result()])
    path = record(s, str(tmp_path))
    assert path == baseline_path(s, str(tmp_path))
    assert path.endswith("BENCH_SYNTHETIC.json")
    doc = json.load(open(path))
    assert doc["schema"] == SCHEMA_VERSION
    assert doc["metrics"]["latency_us"]["value"] == 10.0
    assert doc["invariants"]["shape-holds"] is True
    report = check(s, str(tmp_path))
    assert report.ok and not report.regressions


def test_sim_metric_outside_tolerance_regresses(tmp_path):
    s = make_scenario([result(), result(latency=10.02)])  # +0.2%
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert not report.ok
    assert [d.name for d in report.regressions] == ["latency_us"]
    assert "tolerance" in report.regressions[0].detail
    assert "FAIL" in report.render()


def test_sim_metric_is_exact(tmp_path):
    s = make_scenario([result(), result(latency=10.0 + 10.0 * 5e-4)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert [d.name for d in report.regressions] == ["latency_us"]


def test_count_metric_is_exact(tmp_path):
    s = make_scenario([result(), result(events=101)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert [d.name for d in report.regressions] == ["events"]


def test_wallclock_collapse_warns_not_fails(tmp_path):
    s = make_scenario([result(), result(rate=1e5)])  # 10x slower
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert report.ok
    assert [d.name for d in warnings(report)] == ["rate"]


def test_wallclock_collapse_fails_when_strict(tmp_path):
    s = make_scenario([result(), result(rate=1e5)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path), strict_wallclock=True)
    assert not report.ok


def test_wallclock_duration_direction(tmp_path):
    """Seconds-style wall metrics regress when they grow, not shrink."""
    def with_wall(seconds):
        res = ScenarioResult()
        res.metric("wall_s", seconds, kind="wallclock", unit="s")
        return res
    s = make_scenario([with_wall(1.0), with_wall(0.1), with_wall(8.0)])
    record(s, str(tmp_path))
    assert not warnings(check(s, str(tmp_path)))         # 10x faster: fine
    assert warnings(check(s, str(tmp_path)))             # 8x slower: warn


def test_faster_wallclock_rate_is_fine(tmp_path):
    s = make_scenario([result(), result(rate=1e7)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert report.ok and not warnings(report)


def test_missing_metric_is_regression_new_metric_is_info(tmp_path):
    s = make_scenario([result(extra="old_only"), result(extra=None)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert any(d.name == "old_only" and d.status == "regression"
               for d in report.deviations)
    s2 = make_scenario([result(extra=None), result(extra="brand_new")])
    record(s2, str(tmp_path))
    report2 = check(s2, str(tmp_path))
    assert report2.ok
    assert any(d.name == "brand_new" and d.status == "new"
               for d in report2.deviations)


def test_fresh_invariant_violation_is_regression(tmp_path):
    s = make_scenario([result(inv=True), result(inv=False)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert not report.ok
    assert any(d.name == "invariant:shape-holds" for d in report.regressions)
    assert "detail line" in report.render()


def test_dropped_invariant_is_regression(tmp_path):
    """A baseline invariant the fresh run no longer evaluates fails the
    check, so a refactor cannot silently drop a paper-shape claim."""
    def run(with_claim):
        res = ScenarioResult()
        res.metric("latency_us", 10.0, unit="us")
        if with_claim:
            res.invariant("claim", (True, "holds"))
        return res

    s = make_scenario([run(True), run(False)])
    record(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert not report.ok
    assert [d.name for d in report.regressions] == ["invariant:claim"]
    assert "not evaluated" in report.render()


def test_missing_baseline_reports_error(tmp_path):
    s = make_scenario([result()])
    report = check(s, str(tmp_path))
    assert not report.ok
    assert "no baseline" in report.error


def test_schema_mismatch_refuses_comparison(tmp_path):
    s = make_scenario([result(), result()])
    path = record(s, str(tmp_path))
    doc = json.load(open(path))
    doc["schema"] = SCHEMA_VERSION + 1
    json.dump(doc, open(path, "w"))
    with pytest.raises(ValueError, match="schema"):
        load_baseline(s, str(tmp_path))
    report = check(s, str(tmp_path))
    assert not report.ok and "schema" in report.error


def test_render_reports_summarizes(tmp_path):
    good = make_scenario([result(), result()])
    record(good, str(tmp_path))
    text = render_reports([check(good, str(tmp_path))])
    assert "within tolerance" in text
    bad = make_scenario([result(), result(latency=99.0)])
    record(bad, str(tmp_path))
    text = render_reports([check(bad, str(tmp_path))])
    assert "FAILED" in text and "synthetic" in text


def test_metric_roundtrip():
    m = Metric(3.5, kind="count", unit="events")
    assert Metric.from_dict(m.to_dict()) == m
