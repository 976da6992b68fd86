"""Unit tests for kernel launches, geometry, SM residency, and streams."""

import pytest

from repro.errors import LaunchError
from repro.gpu import GpuConfig
from repro.sim import join_result

from ..conftest import MiniNode


def test_kernel_runs_threads_and_collects_results(node):
    def k(ctx, base):
        yield from ctx.alu(1)
        return base + ctx.block_idx * ctx.block_dim + ctx.thread_idx

    h = node.gpu.launch(k, grid=2, block=3, args=(100,))
    node.sim.run()
    assert h.processed
    assert h.block_result(0) == 100
    assert h.results[(1, 2)] == 105
    assert len(h.results) == 6


def test_kernel_launch_overhead_charged(node):
    def k(ctx):
        yield from ctx.alu(1)

    node.gpu.launch(k)
    node.sim.run()
    assert node.sim.now >= node.gpu.config.launch_overhead


def test_same_stream_kernels_serialize(node):
    order = []

    def k(ctx, tag):
        yield from ctx.alu(1000)
        order.append((tag, node.sim.now))

    node.gpu.launch(k, args=("first",))
    node.gpu.launch(k, args=("second",))
    node.sim.run()
    assert [t for t, _ in order] == ["first", "second"]
    # Strictly after: the second started only after the first finished.
    assert order[1][1] >= order[0][1] + 1000 * node.gpu.config.instruction_time


def test_different_streams_overlap(node):
    spans = {}

    def k(ctx, tag):
        start = node.sim.now
        yield from ctx.alu(10_000)
        spans[tag] = (start, node.sim.now)

    s1 = node.gpu.stream()
    s2 = node.gpu.stream()
    node.gpu.launch(k, args=("a",), stream=s1)
    node.gpu.launch(k, args=("b",), stream=s2)
    node.sim.run()
    (a0, a1), (b0, b1) = spans["a"], spans["b"]
    assert a0 < b1 and b0 < a1  # time ranges overlap


def test_sm_residency_limits_concurrent_blocks():
    node = MiniNode(GpuConfig(dram_bytes=16 * 1024 * 1024,
                              sm_count=1, max_blocks_per_sm=2))
    running = []
    peak = []

    def k(ctx):
        running.append(1)
        peak.append(len(running))
        yield from ctx.alu(1000)
        running.pop()

    node.gpu.launch(k, grid=8, block=1)
    node.sim.run()
    assert max(peak) <= 2


def test_invalid_geometry_rejected(node):
    def k(ctx):
        yield from ctx.alu(1)

    with pytest.raises(LaunchError):
        node.gpu.launch(k, grid=0)
    with pytest.raises(LaunchError):
        node.gpu.launch(k, block=0)
    with pytest.raises(LaunchError):
        node.gpu.launch(k, block=2048)


def test_non_generator_device_fn_fails(node):
    def not_a_kernel(ctx):
        return 42

    h = node.gpu.launch(not_a_kernel)
    with pytest.raises(LaunchError, match="must be a generator"):
        node.sim.run()
    assert h.processed and not h.ok


def test_thread_crash_propagates(node):
    def k(ctx):
        yield from ctx.alu(1)
        raise ValueError("device-side assert")

    h = node.gpu.launch(k)
    with pytest.raises(ValueError, match="device-side assert"):
        node.sim.run()
    assert not h.ok
