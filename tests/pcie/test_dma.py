"""Unit tests for the DMA engine."""

import pytest

from repro.errors import PcieError
from repro.memory import (
    GPU_DRAM_BASE,
    HOST_DRAM_BASE,
    AddressMap,
    Memory,
    MemorySpace,
)
from repro.pcie import DmaConfig, DmaEngine, PcieFabric
from repro.sim import Simulator, join_result
from repro.units import KIB, MIB


def build():
    sim = Simulator()
    amap = AddressMap()
    host = Memory("host", HOST_DRAM_BASE, 4 * MIB, MemorySpace.HOST_DRAM)
    gpu = Memory("gpu", GPU_DRAM_BASE, 4 * MIB, MemorySpace.GPU_DRAM)
    amap.add(host)
    amap.add(gpu)
    fabric = PcieFabric(sim, amap)
    gpu_port = fabric.attach("gpu")
    nic_port = fabric.attach("nic")
    fabric.claim(fabric.root, host)
    fabric.claim(gpu_port, gpu)
    dma = DmaEngine(sim, nic_port, "nic-dma")
    return sim, host, gpu, dma


def run(sim, gen):
    proc = sim.process(gen)
    sim.run()
    return join_result(proc)


def test_dma_read_gathers_bytes():
    sim, host, gpu, dma = build()
    gpu.write(GPU_DRAM_BASE + 100, b"x" * 10)

    def body():
        data = yield from dma.read(GPU_DRAM_BASE + 100, 10)
        return data

    assert run(sim, body()) == b"x" * 10


def test_dma_write_scatters_bytes():
    sim, host, gpu, dma = build()

    def body():
        yield from dma.write(HOST_DRAM_BASE + 64, b"y" * 100)

    run(sim, body())
    assert host.read(HOST_DRAM_BASE + 64, 100) == b"y" * 100


def test_dma_large_transfer_chunked_roundtrip():
    sim, host, gpu, dma = build()
    payload = bytes(range(256)) * (64 * KIB // 256)
    gpu.write(GPU_DRAM_BASE, payload)

    def body():
        data = yield from dma.read(GPU_DRAM_BASE, len(payload))
        yield from dma.write(HOST_DRAM_BASE, data)

    run(sim, body())
    assert host.read(HOST_DRAM_BASE, len(payload)) == payload


def test_dma_engine_serializes_transfers():
    sim, host, gpu, dma = build()
    finish = []

    def xfer(tag):
        yield from dma.write(HOST_DRAM_BASE, b"\x00" * (1 * MIB))
        finish.append((tag, sim.now))

    sim.process(xfer("a"))
    sim.process(xfer("b"))
    sim.run()
    assert finish[0][0] == "a"
    assert finish[1][1] >= finish[0][1] * 1.9  # b waited for a


def test_dma_counts_stats():
    sim, host, gpu, dma = build()

    def body():
        yield from dma.write(HOST_DRAM_BASE, b"\x00" * 128)
        yield from dma.read(HOST_DRAM_BASE, 128)

    run(sim, body())
    assert dma.transfers == 2
    assert dma.bytes_moved == 256


def test_dma_setup_time_charged():
    # Compare two engines, one with setup time.
    sim1, host1, gpu1, dma1 = build()
    def b1():
        start = sim1.now
        yield from dma1.write(HOST_DRAM_BASE, b"\x00" * 8)
        return sim1.now - start
    t_no_setup = run(sim1, b1())

    sim2, host2, gpu2, dma2 = build()
    dma2.config = DmaConfig(setup_time=1e-6)
    def b2():
        start = sim2.now
        yield from dma2.write(HOST_DRAM_BASE, b"\x00" * 8)
        return sim2.now - start
    t_setup = run(sim2, b2())
    assert t_setup == pytest.approx(t_no_setup + 1e-6, rel=1e-6)


def test_dma_zero_length_rejected():
    sim, host, gpu, dma = build()

    def body():
        yield from dma.read(HOST_DRAM_BASE, 0)

    sim.process(body())
    with pytest.raises(PcieError):
        sim.run()


def test_dma_bad_config_rejected():
    with pytest.raises(PcieError):
        DmaConfig(chunk_bytes=0)
    with pytest.raises(PcieError):
        DmaConfig(setup_time=-1.0)
