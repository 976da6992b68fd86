"""Unit tests for ThreadCtx memory operations, timing, and counters."""

import pytest

from repro.errors import GpuError
from repro.gpu.thread import ThreadCtx
from repro.memory import HOST_DRAM_BASE, MMIO_BASE, AddressRange


def ctx_for(node):
    return ThreadCtx(node.gpu, block_idx=0, thread_idx=0, block_dim=1, grid_dim=1)


def test_device_store_load_roundtrip(node):
    ctx = ctx_for(node)
    buf = node.gpu.malloc(64)

    def body():
        yield from ctx.store_u64(buf.base, 0xCAFEBABE)
        val = yield from ctx.load_u64(buf.base)
        return val

    assert node.run(body()) == 0xCAFEBABE


def test_device_load_counters(node):
    ctx = ctx_for(node)
    buf = node.gpu.malloc(64)

    def body():
        yield from ctx.load_u64(buf.base)   # cold: miss
        yield from ctx.load_u64(buf.base)   # warm: hit

    node.run(body())
    c = node.gpu.counters
    assert c.global_load_accesses == 2
    assert c.l2_read_requests == 2
    assert c.l2_read_hits == 1
    assert c.l2_read_misses == 1
    assert c.memory_accesses == 2
    assert c.sysmem_read_transactions == 0


def test_l2_hit_is_faster_than_miss(node):
    ctx = ctx_for(node)
    buf = node.gpu.malloc(64)
    times = []

    def body():
        t0 = node.sim.now
        yield from ctx.load_u64(buf.base)
        times.append(node.sim.now - t0)
        t0 = node.sim.now
        yield from ctx.load_u64(buf.base)
        times.append(node.sim.now - t0)

    node.run(body())
    assert times[1] < times[0]


def test_host_load_counts_sysmem_transactions(node):
    ctx = ctx_for(node)
    rng = AddressRange(HOST_DRAM_BASE + 0x1000, 0x1000)
    node.gpu.map_host_memory(rng)
    node.host.write_u64(rng.base, 7)

    def body():
        val = yield from ctx.load_u64(rng.base)
        return val

    assert node.run(body()) == 7
    c = node.gpu.counters
    assert c.sysmem_read_transactions == 1
    assert c.global_load_accesses == 0
    assert c.l2_read_requests == 0


def test_host_access_much_slower_than_device_hit(node):
    """The paper's core timing asymmetry: PCIe-bound polls vs L2 polls."""
    ctx = ctx_for(node)
    rng = AddressRange(HOST_DRAM_BASE + 0x1000, 0x1000)
    node.gpu.map_host_memory(rng)
    buf = node.gpu.malloc(64)

    def body():
        yield from ctx.load_u64(buf.base)   # warm the line
        t0 = node.sim.now
        yield from ctx.load_u64(buf.base)
        dev_time = node.sim.now - t0
        t0 = node.sim.now
        yield from ctx.load_u64(rng.base)
        host_time = node.sim.now - t0
        return dev_time, host_time

    dev_time, host_time = node.run(body())
    assert host_time > 2 * dev_time


def test_unmapped_uva_address_faults(node):
    ctx = ctx_for(node)

    def body():
        yield from ctx.load_u64(HOST_DRAM_BASE + 0x100)  # never mapped

    node.sim.process(body())
    from repro.errors import TranslationError
    with pytest.raises(TranslationError):
        node.sim.run()


def test_posted_store_to_host_and_fence(node):
    ctx = ctx_for(node)
    rng = AddressRange(HOST_DRAM_BASE + 0x2000, 0x1000)
    node.gpu.map_host_memory(rng)

    def body():
        yield from ctx.store_u64(rng.base, 99)
        yield from ctx.fence_system()
        return node.host.read_u64(rng.base)

    assert node.run(body()) == 99
    assert node.gpu.counters.sysmem_write_transactions == 1


def test_mmio_store_reaches_window_handler(node):
    ctx = ctx_for(node)
    rng = AddressRange(MMIO_BASE, 0x1000)
    node.gpu.map_mmio(rng)
    seen = []
    node.mmio.on_write(0, 0x100, lambda off, data: seen.append((off, data)))

    def body():
        yield from ctx.store_u64(MMIO_BASE + 0x10, 0xABCD)
        yield from ctx.fence_system()

    node.run(body())
    assert seen == [(0x10, (0xABCD).to_bytes(8, "little"))]


def test_alu_counts_instructions_and_time(node):
    ctx = ctx_for(node)

    def body():
        t0 = node.sim.now
        yield from ctx.alu(100)
        return node.sim.now - t0

    dt = node.run(body())
    assert node.gpu.counters.instructions_executed == 100
    assert dt == pytest.approx(100 * node.gpu.config.instruction_time)


def test_alu_zero_is_free(node):
    ctx = ctx_for(node)

    def body():
        yield from ctx.alu(0)
        yield from ctx.alu(1)

    node.run(body())
    assert node.gpu.counters.instructions_executed == 1


def test_spin_until_sees_external_dma_write(node):
    """pollOnGPU: a peer write to device memory is observed by a polling
    thread, and the poll loop mostly hits in L2 until the flag flips."""
    ctx = ctx_for(node)
    buf = node.gpu.malloc(64)

    def poller():
        val, polls = yield from ctx.spin_until_u64(buf.base, lambda v: v == 5)
        return val, polls

    def writer():
        yield node.sim.timeout(20e-6)
        yield from node.nic_port.write(buf.base, (5).to_bytes(8, "little"))

    node.sim.process(writer())
    val, polls = node.run(poller())
    assert val == 5
    assert polls > 10  # spun many times before the flag flipped
    c = node.gpu.counters
    assert c.l2_read_hits > 0.8 * c.l2_read_requests  # mostly L2 hits
    assert c.sysmem_read_transactions == 0


def test_sector_counting_for_wide_accesses(node):
    ctx = ctx_for(node)
    rng = AddressRange(HOST_DRAM_BASE + 0x3000, 0x1000)
    node.gpu.map_host_memory(rng)

    def body():
        yield from ctx.load(rng.base, 128)  # 4 sectors of 32B

    node.run(body())
    assert node.gpu.counters.sysmem_read_transactions == 4


def test_bad_sizes_rejected(node):
    ctx = ctx_for(node)

    def bad_load():
        yield from ctx.load(node.gpu.dram.range.base, 0)

    node.sim.process(bad_load())
    with pytest.raises(GpuError):
        node.sim.run()
