"""Integration tests for the ping-pong benchmark programs (all modes)."""

import pytest

from repro import build_extoll_cluster, build_ib_cluster
from repro.core import (
    ExtollMode,
    IbMode,
    run_extoll_pingpong,
    run_ib_pingpong,
    setup_extoll_connection,
    setup_ib_connection,
)
from repro.errors import BenchmarkError
from repro.units import KIB


@pytest.mark.parametrize("mode", list(ExtollMode))
def test_extoll_pingpong_runs_every_mode(mode):
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    p = run_extoll_pingpong(cluster, conn, mode, 256, iterations=5, warmup=1)
    assert 0 < p.latency < 1e-3
    assert p.post_time > 0
    assert p.poll_time > 0


@pytest.mark.parametrize("mode", list(IbMode))
def test_ib_pingpong_runs_every_mode(mode):
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, 4 * KIB,
                               buffer_location=mode.ring_location)
    p = run_ib_pingpong(cluster, conn, mode, 256, iterations=5, warmup=1)
    assert 0 < p.latency < 1e-3


def test_extoll_latency_ordering_small_messages():
    """hostControlled < pollOnGPU < assisted < direct (§V-A1)."""
    lat = {}
    for mode in ExtollMode:
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, 4 * KIB)
        lat[mode] = run_extoll_pingpong(cluster, conn, mode, 16,
                                        iterations=8, warmup=2).latency
    assert lat[ExtollMode.HOST_CONTROLLED] < lat[ExtollMode.POLL_ON_GPU]
    assert lat[ExtollMode.POLL_ON_GPU] < lat[ExtollMode.ASSISTED]
    assert lat[ExtollMode.ASSISTED] < lat[ExtollMode.DIRECT]


def test_ib_host_beats_gpu_modes():
    lat = {}
    for mode in (IbMode.BUF_ON_GPU, IbMode.HOST_CONTROLLED):
        cluster = build_ib_cluster()
        conn = setup_ib_connection(cluster, 4 * KIB,
                                   buffer_location=mode.ring_location)
        lat[mode] = run_ib_pingpong(cluster, conn, mode, 16,
                                    iterations=8, warmup=2).latency
    assert lat[IbMode.HOST_CONTROLLED] < lat[IbMode.BUF_ON_GPU]


def test_pingpong_moves_real_payload():
    """The pollOnGPU ping-pong leaves the last iteration's marker in both
    receive buffers — data actually moved, in both directions."""
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    iters, warmup = 6, 1
    run_extoll_pingpong(cluster, conn, ExtollMode.POLL_ON_GPU, 256,
                        iterations=iters, warmup=warmup)
    total = iters + warmup
    for end in (conn.a, conn.b):
        marker = end.node.gpu.dram.read_u64(end.recv_buf.base + 256 - 8)
        assert marker == total


def test_minimum_message_sizes():
    for size in (4, 8):
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, 4 * KIB)
        p = run_extoll_pingpong(cluster, conn, ExtollMode.POLL_ON_GPU, size,
                                iterations=4, warmup=1)
        assert p.latency > 0


def test_latency_grows_with_message_size():
    lats = []
    for size in (64, 16 * KIB, 64 * KIB):
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, 64 * KIB)
        lats.append(run_extoll_pingpong(
            cluster, conn, ExtollMode.HOST_CONTROLLED, size,
            iterations=4, warmup=1).latency)
    assert lats[0] < lats[1] < lats[2]


def test_invalid_arguments_rejected():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    with pytest.raises(BenchmarkError):
        run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 0)
    with pytest.raises(BenchmarkError):
        run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64, iterations=0)
    with pytest.raises(BenchmarkError):
        run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 64 * KIB)  # > buffer


def test_fig3_phase_split_present():
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    p = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 1 * KIB,
                            iterations=6, warmup=1)
    assert p.poll_time > p.post_time  # polling dominates (§V-A3)
    assert p.poll_to_post_ratio > 1.0
