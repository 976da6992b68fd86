"""Tests for __syncthreads() / the block barrier."""

import pytest

from repro.errors import GpuError
from repro.gpu.thread import BlockBarrier, ThreadCtx


def test_syncthreads_aligns_threads_in_time(node):
    """Threads with different amounts of work leave the barrier together."""
    exit_times = {}

    def k(ctx):
        yield from ctx.alu((ctx.thread_idx + 1) * 1000)  # staggered work
        yield from ctx.syncthreads()
        exit_times[ctx.thread_idx] = ctx.sim.now

    h = node.gpu.launch(k, grid=1, block=4)
    node.sim.run()
    assert h.ok
    assert len(set(exit_times.values())) == 1  # all left at the same instant


def test_syncthreads_orders_shared_data(node):
    """The classic pattern: thread 0 publishes, everyone reads after the
    barrier."""
    buf = node.gpu.malloc(64)

    def k(ctx):
        if ctx.thread_idx == 0:
            yield from ctx.store_u64(buf.base, 0x5EED)
        yield from ctx.syncthreads()
        val = yield from ctx.load_u64(buf.base)
        return val

    h = node.gpu.launch(k, grid=1, block=8)
    node.sim.run()
    assert all(h.block_result(0, t) == 0x5EED for t in range(8))


def test_barrier_is_reusable_across_generations(node):
    order = []

    def k(ctx):
        for phase in range(3):
            yield from ctx.alu((ctx.thread_idx + 1) * 100)
            yield from ctx.syncthreads()
            if ctx.thread_idx == 0:
                order.append(phase)

    h = node.gpu.launch(k, grid=1, block=4)
    node.sim.run()
    assert h.ok
    assert order == [0, 1, 2]


def test_blocks_have_independent_barriers(node):
    """A barrier only synchronizes within one block."""
    finish = {}

    def k(ctx):
        yield from ctx.alu((ctx.block_idx + 1) * 10_000)
        yield from ctx.syncthreads()
        finish[ctx.block_idx] = ctx.sim.now

    h = node.gpu.launch(k, grid=2, block=2)
    node.sim.run()
    assert h.ok
    assert finish[0] < finish[1]  # block 1 was not held back by block 0


def test_syncthreads_outside_kernel_rejected(node):
    ctx = ThreadCtx(node.gpu, 0, 0, 1, 1)  # no barrier attached

    def body():
        yield from ctx.syncthreads()

    node.sim.process(body())
    with pytest.raises(GpuError):
        node.sim.run()


def test_barrier_validation(node):
    with pytest.raises(GpuError):
        BlockBarrier(node.sim, 0)


def test_single_thread_barrier_is_immediate(node):
    def k(ctx):
        yield from ctx.syncthreads()
        return ctx.sim.now

    h = node.gpu.launch(k, grid=1, block=1)
    node.sim.run()
    assert h.ok
