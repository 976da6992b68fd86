"""The open-loop generator end to end: the full workload x control-mode
grid, queueing visibility, fault recovery, determinism, and the
trace<->histogram reconciliation the telemetry integration promises."""

from __future__ import annotations

import pytest

from repro.errors import BenchmarkError
from repro.faults import FaultPlan
from repro.perf.scenarios import workload_service
from repro.sim import Simulator
from repro.telemetry import TelemetryPlane
from repro.workloads import (
    MODES,
    WORKLOADS,
    WorkloadRun,
    WorkloadStats,
    WorkloadTransport,
    exact_percentile,
    reconcile,
)

FAST = dict(nodes=4, size=64, requests=3)


def closed(workload, mode, **kw):
    return WorkloadRun(workload, mode, loop="closed",
                       **{**FAST, **kw}).execute()


# -- the grid ---------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("mode", MODES)
def test_every_workload_under_every_mode(workload, mode):
    """The acceptance grid: all four app workloads complete and verify
    rank-by-rank under all four control modes."""
    result = closed(workload, mode)
    assert result.verified
    assert result.stats.completed == FAST["requests"]
    assert result.stats.failures == 0
    assert len(result.latencies) == FAST["requests"]
    assert result.mean_service > 0


@pytest.mark.parametrize("workload,mode", [
    ("psfanin", "mpi"),          # rendezvous-size payloads over MPI
    ("kvcache", "engine"),       # engine-posted puts on slot rings
    ("moe", "hostControlled"),
])
def test_grid_under_packet_loss(workload, mode):
    """The PR 3 faults grid: with reliable channels armed, injected loss
    and corruption never change the answer — only the latency."""
    plan = FaultPlan.uniform(loss=0.05, corrupt=0.02, seed=9)
    result = closed(workload, mode, fault_plan=plan, reliable=True, seed=4)
    assert result.verified


def test_loss_costs_latency_but_not_correctness():
    plan = FaultPlan.uniform(loss=0.05, seed=9)
    clean = closed("moe", "engine", reliable=True, seed=4)
    lossy = closed("moe", "engine", fault_plan=plan, reliable=True, seed=4)
    assert clean.verified and lossy.verified
    assert lossy.mean_service > clean.mean_service


# -- open vs closed loop ----------------------------------------------------------

def test_open_loop_exposes_queueing_delay():
    """The tentpole property: at 0.9x the service rate the open loop's
    p99 must exceed the closed loop's, because requests queue behind
    in-flight ones — the thing a closed loop cannot show."""
    base = closed("moe", "hostControlled", requests=24)
    rate = 0.9 / base.mean_service
    open_run = WorkloadRun("moe", "hostControlled", nodes=4, size=64,
                           requests=24, loop="open", rate=rate).execute()
    assert open_run.verified
    assert open_run.p99 > base.p99
    assert open_run.mean_wait > 0
    # Closed-loop waits are zero by construction.
    assert base.mean_wait == 0.0


def test_open_loop_arrivals_ignore_completions():
    """Overdriven at 4x the service rate, arrivals outpace completions:
    the queue must actually build (max depth > 1)."""
    base = closed("psfanin", "hostControlled", requests=8)
    run = WorkloadRun("psfanin", "hostControlled", nodes=4, size=64,
                      requests=16, loop="open",
                      rate=4.0 / base.mean_service)
    seen_depth = []
    original = run.transport.start_request

    def spy(req, on_done, on_failed):
        seen_depth.append(run.stats.queue_depth)
        original(req, on_done, on_failed)

    run.transport.start_request = spy
    result = run.execute()
    assert result.verified
    assert run.stats.issued == 16
    assert result.last_arrival < result.last_completion
    # At 4x overdrive, later dispatches find requests already queued.
    assert max(seen_depth) > 0


def test_deterministic_replay():
    """Same seed, same configuration -> bit-identical latency sequences,
    for both arrival kinds."""
    for arrival in ("poisson", "bursty"):
        runs = [WorkloadRun("kvcache", "engine", nodes=4, size=64,
                            requests=10, loop="open", arrival=arrival,
                            rate=2e4, seed=13).execute()
                for _ in range(2)]
        assert runs[0].latencies == runs[1].latencies
        assert runs[0].last_completion == runs[1].last_completion


# -- telemetry integration --------------------------------------------------------

def test_reconciliation_within_one_percent():
    sim = Simulator(seed=2)
    plane = TelemetryPlane(sim, interval=20e-6)
    run = WorkloadRun("trainstep", "engine", nodes=4, size=64,
                      requests=8, loop="open", rate=2e4, seed=2, sim=sim)
    plane.watch_workloads(run)
    plane.start()
    result = run.execute()
    plane.stop()
    recon = reconcile(result, plane.recorder)
    assert recon["ok"]
    assert recon["span_count"] == len(result.latencies)
    assert recon["sum_err"] <= 0.01
    # The engine mode also exports its posting-path counters.
    assert any(n.startswith("workload.engine.")
               for n in plane.sampler.bank.names())
    assert "workload.completed" in plane.sampler.bank.names()


def test_telemetry_never_perturbs_the_run():
    kw = dict(nodes=4, size=64, requests=8, loop="open", rate=2e4, seed=2)
    bare = WorkloadRun("trainstep", "engine", **kw).execute()
    sim = Simulator(seed=2)
    plane = TelemetryPlane(sim, interval=20e-6)
    run = WorkloadRun("trainstep", "engine", sim=sim, **kw)
    plane.watch_workloads(run)
    plane.start()
    instrumented = run.execute()
    plane.stop()
    assert plane.sampler.ticks > 0
    assert bare.latencies == instrumented.latencies
    assert bare.last_completion == instrumented.last_completion


# -- saturation sweep -------------------------------------------------------------

def test_saturation_knee_and_efficiency():
    res = workload_service(["psfanin"], ["hostControlled"], size=64,
                           requests=12, fractions=(0.5, 1.2))
    (cell,) = res.runs["cells"]
    assert cell["service_rate"] == 1.0 / cell["closed"].mean_service
    below, above = cell["open"]
    assert below["rate"] == 0.5 * cell["service_rate"]
    assert below["result"].efficiency >= 0.95   # keeps up below the knee
    assert above["result"].efficiency < 1.0     # saturated past the knee
    assert cell["knee"] == below["rate"]
    assert res.metrics["psfanin/hostControlled/knee_per_s"].value \
        == below["rate"]
    doc = res.extra["saturation"]["psfanin/hostControlled"]
    assert doc["knee"] == below["rate"]
    assert len(doc["points"]) == 2
    assert {"offered", "offered_measured", "achieved", "efficiency",
            "p99"} <= set(doc["points"][0])
    assert all(v.ok for v in res.verdicts), res.verdicts


# -- measurement plumbing ---------------------------------------------------------

def test_exact_percentile():
    values = [float(v) for v in range(1, 101)]
    assert exact_percentile(values, 50) == 50.0
    assert exact_percentile(values, 99) == 99.0
    assert exact_percentile(values, 100) == 100.0
    assert exact_percentile([], 99) == 0.0
    with pytest.raises(BenchmarkError):
        exact_percentile(values, 101)


def test_stats_follow_the_sampler_protocol():
    stats = WorkloadStats()
    before = stats.snapshot()
    stats.issued += 5
    stats.completed += 3
    stats.queue_depth = 2
    diff = stats.diff(before)
    assert diff["issued"] == 5
    assert diff["completed"] == 3
    assert diff["queue_depth"] == 2         # gauge: level, not delta
    assert set(WorkloadStats.GAUGES) == {"queue_depth", "inflight"}


def test_validation_errors():
    with pytest.raises(BenchmarkError, match="single-shot"):
        run = WorkloadRun("moe", "hostControlled", loop="closed", **FAST)
        run.execute()
        run.execute()
    for rate in (0.0, float("nan"), float("inf")):
        with pytest.raises(BenchmarkError, match="rate > 0"):
            WorkloadRun("moe", "hostControlled", loop="open", rate=rate,
                        **FAST)
    with pytest.raises(BenchmarkError, match="loop discipline"):
        WorkloadRun("moe", "hostControlled", loop="sideways", **FAST)
    with pytest.raises(BenchmarkError, match="reliable=True"):
        WorkloadRun("moe", "hostControlled", loop="closed",
                    fault_plan=FaultPlan.uniform(loss=0.01), **FAST)
    with pytest.raises(BenchmarkError, match="unknown workload mode"):
        WorkloadRun("moe", "smoke-signals", loop="closed", **FAST)
    with pytest.raises(BenchmarkError, match="multiple of 8"):
        WorkloadRun("moe", "engine", loop="closed", nodes=4, size=63,
                    requests=2)
