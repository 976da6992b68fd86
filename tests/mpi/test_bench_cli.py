"""The MPI benchmarks and the ``python -m repro mpi`` / ``triggered`` CLIs."""

from __future__ import annotations

import json

import pytest

from repro.engine import batched_mmio_floor
from repro.errors import ConfigError, MpiError
from repro.mpi.bench import (
    run_mode_allreduce_mmio,
    run_mpi_allreduce,
    run_mpi_pingpong,
)
from repro.mpi.cli import main as mpi_main
from repro.obs.tracer import SpanTracer
from repro.triggered.cli import main as triggered_main
from repro.collectives.comm import CollectiveMode


def test_pingpong_crossover_and_zero_mmio():
    eager = run_mpi_pingpong(128, iterations=3, warmup=1)
    rndv = run_mpi_pingpong(129, iterations=3, warmup=1)
    assert eager.protocol == "eager" and eager.rndv_sent == 0
    assert rndv.protocol == "rendezvous" and rndv.eager_sent == 0
    assert rndv.point.latency > eager.point.latency
    assert eager.bar_mmio == rndv.bar_mmio == 0


def test_allreduce_reconciles_with_tracer():
    tracer = SpanTracer()
    r = run_mpi_allreduce(4, 128, iterations=3, warmup=1, tracer=tracer)
    assert r.correct
    assert r.bar_mmio == 0
    assert r.reconcile["ok"], r.reconcile
    assert "spans" in r.reconcile        # tracer attached -> 3-way check
    assert r.chains_fired == 4 * 2 * 3 * (3 + 1)


def test_host_assist_modes_pay_mmio():
    m = run_mode_allreduce_mmio(CollectiveMode.HOST_CONTROLLED, 2, 64,
                                iterations=2, warmup=1)
    assert m["correct"]
    assert m["bar_mmio"] > 0
    assert m["wrs_posted"] > 0


def test_bench_validation():
    with pytest.raises(MpiError):
        run_mpi_pingpong(0)
    with pytest.raises(MpiError):
        run_mpi_allreduce(1, 64)
    with pytest.raises(MpiError):
        run_mpi_allreduce(2, 63)


def test_batched_mmio_floor():
    assert batched_mmio_floor(0, 8) == 0
    assert batched_mmio_floor(1, 8) == 1
    assert batched_mmio_floor(8, 8) == 1
    assert batched_mmio_floor(9, 8) == 2
    with pytest.raises(ConfigError):
        batched_mmio_floor(4, 0)
    with pytest.raises(ConfigError):
        batched_mmio_floor(-1, 8)


def test_mpi_cli_quick_json(capsys):
    assert mpi_main(["--quick", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["iallreduce"]["bar_mmio"] == 0
    assert all(v["ok"] for v in out["verdicts"])
    protocols = [p["protocol"] for p in out["pingpong"]]
    assert "eager" in protocols and "rendezvous" in protocols


def test_mpi_cli_text(capsys):
    assert mpi_main(["--quick"]) == 0
    out = capsys.readouterr().out
    assert "triggered chains" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_triggered_cli_quick_json(capsys):
    assert triggered_main(["--quick", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["triggered"]["host_wr_posts"] == 0
    assert out["host_assist"]["wr_posts"] > 0


def test_mpi_cli_trace_out(tmp_path, capsys):
    path = tmp_path / "mpi.json"
    assert mpi_main(["--quick", "--out", str(path)]) == 0
    capsys.readouterr()
    trace = json.loads(path.read_text())
    assert trace["traceEvents"]
