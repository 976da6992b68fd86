"""One testbed per measurement: ``measure_*`` builds the same testbed a
caller would build by hand, and the mode alone picks it.

Every hand run here uses the 4 KiB buffer the benchmark cells use, while
``measure_*`` uses ``max(size, 64 KiB)``: the ``==`` comparisons pin that
no modeled number depends on the buffer size.
"""

import pytest

from repro.cluster import build_extoll_cluster, build_ib_cluster
from repro.core import (
    ExtollMode,
    IbMode,
    RateMethod,
    measure_bandwidth,
    measure_message_rate,
    measure_pingpong,
    pingpong_mode,
    pingpong_modes,
    run_extoll_bandwidth,
    run_extoll_pingpong,
    run_ib_message_rate,
    run_ib_pingpong,
    setup_extoll_connection,
    setup_ib_connection,
    setup_ib_connections,
)
from repro.core.measure import buffer_bytes
from repro.engine import EngineConfig, EngineStats, run_engine_pingpong
from repro.errors import BenchmarkError, ConfigError
from repro.units import KIB, MIB

ITER, WARMUP = 4, 1
HAND_BUF = 4 * KIB

MODES = [(fabric, name) for fabric in ("extoll", "ib")
         for name in pingpong_modes(fabric)]


def _hand_pingpong(mode, size):
    if isinstance(mode, IbMode):
        cluster = build_ib_cluster()
        conn = setup_ib_connection(cluster, HAND_BUF, mode.ring_location)
        return run_ib_pingpong(cluster, conn, mode, size, ITER, WARMUP)
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, HAND_BUF)
    if isinstance(mode, EngineConfig):
        return run_engine_pingpong(cluster, conn, size, ITER, WARMUP,
                                   config=mode)
    return run_extoll_pingpong(cluster, conn, mode, size, ITER, WARMUP)


def test_ten_pingpong_modes():
    assert len(MODES) == 10
    assert pingpong_modes("ib") == tuple(m.value for m in IbMode)


@pytest.mark.parametrize("size", [64, 4 * KIB])
@pytest.mark.parametrize("fabric,name", MODES,
                         ids=[f"{f}-{n}" for f, n in MODES])
def test_measure_pingpong_equals_hand_built_run(fabric, name, size):
    mode = pingpong_mode(fabric, name)
    assert (measure_pingpong(mode, size, ITER, WARMUP)
            == _hand_pingpong(mode, size))


def test_mode_resolver():
    assert pingpong_mode("extoll", "dev2dev-direct") is ExtollMode.DIRECT
    assert pingpong_mode("ib", "dev2dev-assisted") is IbMode.ASSISTED
    assert pingpong_mode("extoll", "dev2dev-engineBatched") \
        == EngineConfig.all_on()
    with pytest.raises(ConfigError, match="unknown ib mode"):
        pingpong_mode("ib", "dev2dev-direct")
    with pytest.raises(ConfigError, match="unknown fabric"):
        pingpong_modes("myrinet")


def test_buffer_rule():
    assert buffer_bytes(64) == 64 * KIB
    assert buffer_bytes(4 * MIB) == 4 * MIB


def test_measure_bandwidth_equals_hand_built_run():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, HAND_BUF)
    hand = run_extoll_bandwidth(cluster, conn, ExtollMode.DIRECT, 4 * KIB,
                                count=8)
    assert measure_bandwidth(ExtollMode.DIRECT, 4 * KIB, 8) == hand


@pytest.mark.parametrize("count", [0, -2])
def test_measure_bandwidth_rejects_a_count_below_one(count):
    """An explicit count is taken as given: 0 does not mean the default."""
    with pytest.raises(BenchmarkError, match=f"count={count}"):
        measure_bandwidth(ExtollMode.DIRECT, 4 * KIB, count)


@pytest.mark.parametrize("method,location", [
    (RateMethod.BLOCKS, "gpu"), (RateMethod.KERNELS, "gpu"),
    (RateMethod.ASSISTED, "host"), (RateMethod.HOST_CONTROLLED, "host")])
def test_ib_message_rate_places_rings_by_method(method, location):
    """Fig. 5's rule: blocks and kernels get GPU-memory rings, every other
    method host-memory rings."""
    cluster = build_ib_cluster()
    conns = setup_ib_connections(cluster, HAND_BUF, 2, location)
    hand = run_ib_message_rate(cluster, conns, method, per_connection=10)
    assert measure_message_rate(method, 2, 10, "ib") == hand


def test_engine_message_rate_fills_stats_and_stays_on_extoll():
    stats = EngineStats()
    point = measure_message_rate(EngineConfig.all_on(), 2, 10, stats=stats)
    assert point.messages == 20 and stats.messages == 20
    with pytest.raises(ConfigError, match="EXTOLL only"):
        measure_message_rate(EngineConfig.all_on(), 2, 10, "ib")
    with pytest.raises(ConfigError, match="stats"):
        measure_message_rate(RateMethod.BLOCKS, 2, 10, stats=EngineStats())


def test_on_setup_runs_after_wiring_before_the_driver():
    seen = []

    def on_setup(cluster):
        # The connection's port is open; no simulated time has passed.
        seen.append((cluster.sim.now, cluster.a.nic.port_state(0).port_id))

    measure_pingpong(ExtollMode.DIRECT, 64, ITER, WARMUP, on_setup=on_setup)
    assert seen == [(0.0, 0)]


def test_rejects_what_is_not_a_mode():
    with pytest.raises(ConfigError):
        measure_pingpong(RateMethod.BLOCKS, 64)
    with pytest.raises(ConfigError):
        measure_bandwidth(EngineConfig.all_on(), 64)
    with pytest.raises(ConfigError):
        measure_message_rate(ExtollMode.DIRECT, 2, 10)
