"""Unit tests for the host CPU model."""

import pytest

from repro.cpu import Cpu, CpuConfig
from repro.errors import ConfigError
from repro.memory import HOST_DRAM_BASE, MMIO_BASE
from repro.sim import join_result


def make_cpu(node):
    cpu = Cpu(node.sim)
    cpu.attach(node.fabric.root, node.host)
    return cpu


def test_host_memory_write_read(node):
    cpu = make_cpu(node)

    def body(ctx):
        yield from ctx.write_u64(HOST_DRAM_BASE + 0x10, 1234)
        val = yield from ctx.read_u64(HOST_DRAM_BASE + 0x10)
        return val

    proc = cpu.spawn(body)
    node.sim.run()
    assert join_result(proc) == 1234


def test_mmio_write_goes_through_fabric(node):
    cpu = make_cpu(node)
    seen = []
    node.mmio.on_write(0, 0x100, lambda off, data: seen.append(off))

    def body(ctx):
        yield from ctx.write_u32(MMIO_BASE + 0x20, 7)

    proc = cpu.spawn(body)
    node.sim.run()
    join_result(proc)
    assert seen == [0x20]


def test_mmio_slower_than_host_memory(node):
    cpu = make_cpu(node)

    def body(ctx):
        t0 = ctx.sim.now
        yield from ctx.write_u64(HOST_DRAM_BASE + 0x10, 1)
        host_t = ctx.sim.now - t0
        t0 = ctx.sim.now
        yield from ctx.write_u64(MMIO_BASE + 0x10, 1)
        mmio_t = ctx.sim.now - t0
        return host_t, mmio_t

    proc = cpu.spawn(body)
    node.sim.run()
    host_t, mmio_t = join_result(proc)
    assert mmio_t > host_t


def test_spin_until_sees_dma_write(node):
    """CPU polls a host flag; the 'NIC' flips it later via the fabric."""
    cpu = make_cpu(node)

    def poller(ctx):
        val, polls = yield from ctx.spin_until_u64(
            HOST_DRAM_BASE + 0x100, lambda v: v == 9)
        return val, polls

    def nic_writer():
        yield node.sim.timeout(5e-6)
        yield from node.nic_port.write(HOST_DRAM_BASE + 0x100,
                                       (9).to_bytes(8, "little"))

    node.sim.process(nic_writer())
    proc = cpu.spawn(poller)
    node.sim.run()
    val, polls = join_result(proc)
    assert val == 9
    assert polls > 100  # cached polls are cheap, so there are many


def test_cpu_polls_cheaper_than_gpu_polls(node):
    """The asymmetry behind the paper's host-controlled win: CPU polls of
    host memory are orders of magnitude cheaper than GPU polls of the same
    location over PCIe."""
    from repro.gpu.thread import ThreadCtx
    from repro.memory import AddressRange

    cpu = make_cpu(node)
    flag = HOST_DRAM_BASE + 0x200
    node.gpu.map_host_memory(AddressRange(flag, 0x1000))

    def cpu_poll(ctx):
        t0 = ctx.sim.now
        for _ in range(10):
            yield from ctx.spin_until_u64(flag, lambda v: True)
        return (ctx.sim.now - t0) / 10

    proc = cpu.spawn(cpu_poll)
    node.sim.run()
    cpu_cost = join_result(proc)

    gctx = ThreadCtx(node.gpu, 0, 0, 1, 1)

    def gpu_poll():
        t0 = node.sim.now
        for _ in range(10):
            yield from gctx.load_u64(flag)
        return (node.sim.now - t0) / 10

    gproc = node.sim.process(gpu_poll())
    node.sim.run()
    gpu_cost = join_result(gproc)
    assert gpu_cost > 10 * cpu_cost


def test_compute_time(node):
    cpu = make_cpu(node)

    def body(ctx):
        t0 = ctx.sim.now
        yield from ctx.compute(3000)
        return ctx.sim.now - t0

    proc = cpu.spawn(body)
    node.sim.run()
    assert join_result(proc) == pytest.approx(3000 / cpu.config.clock_hz)


def test_unattached_cpu_rejected(node):
    cpu = Cpu(node.sim)
    with pytest.raises(ConfigError):
        _ = cpu.port
