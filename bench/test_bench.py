"""Checks of the benchmark itself at smoke sizes.

Run from the repository root with ``pytest bench -q``.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import run  # noqa: E402  (puts src/ on the path)
from layers import Recorder  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_results():
    return {name: run.measure(name, seed=7, seconds=0, trace=True,
                              smoke=True)
            for name in run.WORKLOADS}


def test_metric_names_and_units_match_benchmark_json(traced_results):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    for result in traced_results.values():
        assert {k: m["unit"] for k, m in
                result["end_to_end"].items()} == end_to_end
        assert {k: m["unit"] for k, m in
                run.contract_line(result)["metrics"].items()} == per_layer


def test_smoke_runs_pass_every_check(traced_results):
    for name, result in traced_results.items():
        assert result["correct"], (name, result["failures"])
        assert result["attempted"] > 0


def test_traced_and_untraced_outputs_are_identical():
    for workload in run.WORKLOADS.values():
        plan = workload.cells(11, True)
        plain = run.run_rep(workload, plan, Recorder(), 0)
        traced = run.run_rep(workload, plan, Recorder(profile=True), 0)
        assert not plain.problems and not traced.problems
        assert plain.outputs == traced.outputs


def test_named_layers_cover_profiled_time(traced_results):
    for name, result in traced_results.items():
        assert result["layer_coverage"] >= 0.95, name


def test_corrupted_reference_fails_and_names_the_cell(tmp_path):
    name = "fabric-allreduce-64"
    assert run.record([name], 7, smoke=True, reference_dir=tmp_path) == 0
    path = tmp_path / "smoke-seed7.json"
    table = json.loads(path.read_text())
    cell = sorted(table[name])[0]
    table[name][cell]["steps"] += 1
    path.write_text(json.dumps(table))

    result = run.measure(name, seed=7, seconds=0, trace=False, smoke=True,
                         reference_dir=tmp_path)
    assert not result["correct"]
    assert result["failed"] == 1
    assert any(f"cell {cell}: field steps" in line
               for line in result["failures"])


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.2 for x in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == "improved"
    assert compare.verdict(parent, slower, "lower", 0.1) == "worse"
    assert compare.verdict(parent, parent[::-1], "lower", 0.1) == "unchanged"
    noisy = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    assert compare.verdict(noisy, noisy[1:] + noisy[:1], "lower",
                           0.1) == "unresolved"
    assert compare.verdict([5] * 10, [5] * 10, "lower", None) == "unchanged"
    assert compare.verdict([5] * 10, [4] * 10, "lower", None) == "improved"
