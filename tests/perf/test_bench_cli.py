"""End-to-end CLI tests: record/check round trips and injected regressions.

The acceptance checks live here: ``bench --check`` must pass cleanly
against a fresh recording and must exit nonzero when (a) a baseline value
is tampered with and (b) the latency model itself is deliberately
perturbed — the scenario the harness exists to catch.
"""

import json

import pytest

from repro.obs import cli as trace_cli
from repro.perf import SCENARIOS, check, profile_from_trace, record
from repro.perf.cli import bench_main
from repro.sim import Simulator


def test_bench_list():
    assert bench_main(["--list"]) == 0


def test_unknown_scenario_is_a_usage_error(tmp_path):
    assert bench_main(["--check", "--scenario", "nope",
                       "--dir", str(tmp_path)]) == 2


def test_record_then_check_round_trip(tmp_path, capsys):
    rc = bench_main(["--record", "--scenario", "sim-throughput",
                     "--dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "BENCH_SIM_THROUGHPUT.json").exists()
    rc = bench_main(["--check", "--scenario", "sim-throughput",
                     "--dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "within tolerance" in out


def test_tampered_baseline_fails_check(tmp_path, capsys):
    bench_main(["--record", "--scenario", "sim-throughput",
                "--dir", str(tmp_path)])
    path = tmp_path / "BENCH_SIM_THROUGHPUT.json"
    doc = json.loads(path.read_text())
    doc["metrics"]["sim_events"]["value"] *= 1.10
    path.write_text(json.dumps(doc))
    rc = bench_main(["--check", "--scenario", "sim-throughput",
                     "--dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSION" in out and "sim_events" in out


def test_missing_baseline_fails_check(tmp_path, capsys):
    rc = bench_main(["--check", "--scenario", "sim-throughput",
                     "--dir", str(tmp_path)])
    assert rc == 1
    assert "no baseline" in capsys.readouterr().out


def test_injected_latency_regression_is_caught(tmp_path, monkeypatch):
    """Perturb the latency model itself — every simulated delay 5% slower —
    and the checked scenario must fail its sim-metric bands while count
    metrics (steps) stay exact."""
    scenario = SCENARIOS["collectives-allreduce"]
    record(scenario, str(tmp_path))

    original = Simulator.timeout

    def inflated(self, delay):
        return original(self, delay * 1.05)

    monkeypatch.setattr(Simulator, "timeout", inflated)
    report = check(scenario, str(tmp_path))
    assert not report.ok
    regressed = {d.name for d in report.regressions}
    assert any(name.endswith("latency_us") for name in regressed)
    assert not any(name.endswith("steps") for name in regressed)


def test_profile_cli_writes_json(tmp_path, capsys):
    out_path = tmp_path / "profile.json"
    rc = trace_cli.main(["--mode", "dev2dev-direct", "--size", "64",
                         "--iterations", "4", "--warmup", "1",
                         "--out", str(tmp_path / "trace.json"),
                         "--json", str(out_path)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert "reconciliation" in printed
    doc = json.loads(out_path.read_text())
    assert doc["reconciles"] is True
    assert {row["name"] for row in doc["phases"]} >= {
        "wqe-generation", "wire", "completion-polling"}


def test_trace_json_is_the_runs_profile(tmp_path, monkeypatch, capsys):
    """``trace --json`` writes the profile of the run it traced: every key
    but ``verdicts`` (which lists all the printed verdicts) is
    ``profile_from_trace(...).to_dict()`` of that run."""
    runs = []
    real = trace_cli.run_traced_pingpong
    monkeypatch.setattr(trace_cli, "run_traced_pingpong",
                        lambda *a: runs.append(real(*a)) or runs[-1])
    out_path = tmp_path / "profile.json"
    assert trace_cli.main(["--fabric", "ib", "--mode", "dev2dev-bufOnHost",
                           "--iterations", "3", "--warmup", "1",
                           "--out", str(tmp_path / "trace.json"),
                           "--json", str(out_path)]) == 0
    capsys.readouterr()
    (tracer, point), = runs
    expected = profile_from_trace(tracer, point, "ib", "dev2dev-bufOnHost",
                                  3).to_dict()
    doc = json.loads(out_path.read_text())
    assert doc.pop("verdicts")[-1] == expected.pop("verdicts")[0]
    assert doc == json.loads(json.dumps(expected))


def test_every_registered_scenario_has_unique_baseline_name():
    names = [s.baseline_filename for s in SCENARIOS.values()]
    assert len(names) == len(set(names))
    assert all(n.startswith("BENCH_") and n.endswith(".json") for n in names)


def test_quick_excludes_slow_scenarios(tmp_path, monkeypatch):
    """--quick must skip the full-only scenarios (extoll-bandwidth)."""
    from repro.perf import ScenarioResult
    from repro.perf import scenarios as scen_mod
    ran = []

    def fake(name):
        def run():
            ran.append(name)
            return ScenarioResult()
        return run

    patched = {n: s.__class__(name=s.name, description=s.description,
                              run=fake(n), quick=s.quick)
               for n, s in scen_mod.SCENARIOS.items()}
    monkeypatch.setattr(scen_mod, "SCENARIOS", patched)
    assert bench_main(["--record", "--quick", "--dir", str(tmp_path)]) == 0
    assert "extoll-bandwidth" not in ran
    assert "sim-throughput" in ran
    ran.clear()
    assert bench_main(["--check", "--quick", "--dir", str(tmp_path)]) == 0
    assert "extoll-bandwidth" not in ran
    assert "sim-throughput" in ran
