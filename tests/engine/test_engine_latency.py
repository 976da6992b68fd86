"""Engine ping-pong: config surface and the latency cost/benefit."""

import pytest

from repro import build_extoll_cluster
from repro.core import setup_extoll_connection
from repro.core.modes import ExtollMode
from repro.core.pingpong import run_extoll_pingpong
from repro.engine import EngineConfig, run_engine_pingpong
from repro.errors import BenchmarkError, ConfigError
from repro.obs.tracer import SpanTracer
from repro.sim import Simulator
from repro.units import KIB

ITERS = dict(iterations=10, warmup=2)


def fresh_conn(seed=7, tracer=None):
    sim = Simulator(seed=seed, tracer=tracer)
    cluster = build_extoll_cluster(sim=sim)
    return cluster, setup_extoll_connection(cluster, 16 * KIB)


# -- configuration surface ----------------------------------------------------

@pytest.mark.quick
def test_config_variant_flags():
    assert not EngineConfig.baseline().warp_parallel
    assert not EngineConfig.baseline().batching
    assert not EngineConfig.baseline().aggregating
    assert EngineConfig.warp_only().warp_parallel
    assert not EngineConfig.warp_only().batching
    assert EngineConfig.batch_only().batching
    assert not EngineConfig.batch_only().warp_parallel
    all_on = EngineConfig.all_on()
    assert all_on.warp_parallel and all_on.batching and all_on.aggregating


@pytest.mark.quick
def test_config_window_accommodates_the_batch():
    assert EngineConfig(window=2, batch_size=8).effective_window == 8
    assert EngineConfig(window=24, batch_size=8).effective_window == 24


@pytest.mark.parametrize("kwargs", [
    {"wqe_lanes": 0},
    {"wqe_lanes": 33},
    {"batch_size": 0},
    {"aggregate_bytes": -1},
    {"window": 0},
    {"flush_timeout": 0.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        EngineConfig(**kwargs)


# -- latency ------------------------------------------------------------------

def test_baseline_engine_reproduces_direct_exactly():
    """With every optimization off, the engine's posting path IS the
    scalar dev2dev-direct path — latencies must agree bit-exactly, which
    pins the ablation's zero point to the paper's cost model."""
    cluster, conn = fresh_conn()
    direct = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64, **ITERS)
    cluster, conn = fresh_conn()
    engine = run_engine_pingpong(cluster, conn, 64,
                                 config=EngineConfig.baseline(), **ITERS)
    assert engine.latency == direct.latency
    assert engine.post_time == direct.post_time


def test_all_on_engine_beats_direct_at_64b():
    cluster, conn = fresh_conn()
    direct = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64, **ITERS)
    cluster, conn = fresh_conn()
    engine = run_engine_pingpong(cluster, conn, 64, **ITERS)
    assert engine.latency < direct.latency


def test_warp_parallelism_cuts_post_time():
    cluster, conn = fresh_conn()
    scalar = run_engine_pingpong(cluster, conn, 64,
                                 config=EngineConfig.baseline(), **ITERS)
    cluster, conn = fresh_conn()
    warp = run_engine_pingpong(cluster, conn, 64,
                               config=EngineConfig.warp_only(), **ITERS)
    assert warp.post_time < scalar.post_time
    assert warp.latency < scalar.latency


def test_pingpong_rejects_oversized_message():
    cluster, conn = fresh_conn()
    with pytest.raises(BenchmarkError):
        run_engine_pingpong(cluster, conn, 64 * KIB, **ITERS)


def test_traced_engine_pingpong_reconciles():
    """The engine driver's phase spans must account for the measured
    point the same way the scalar drivers do (the profiler contract)."""
    from repro.obs.export import reconcile_with_point

    tracer = SpanTracer()
    cluster, conn = fresh_conn(tracer=tracer)
    point = run_engine_pingpong(cluster, conn, 64, **ITERS)
    recon = reconcile_with_point(tracer, point, ITERS["iterations"])
    assert recon["phases"], "no phase spans recorded"
    assert all(r["ok"] for r in recon["phases"].values())
