"""Unit tests for the PCIe fabric: routing, timing, P2P pathology."""

import pytest

from repro.errors import ConfigError, PcieError
from repro.memory import (
    GPU_DRAM_BASE,
    HOST_DRAM_BASE,
    MMIO_BASE,
    AddressMap,
    Memory,
    MemorySpace,
    MmioWindow,
)
from repro.pcie import FabricConfig, PcieFabric, PcieLinkConfig
from repro.sim import Simulator, join_result
from repro.units import GB_PER_S, KIB, MIB, NS, US


def build_node(p2p_enabled=True):
    """A minimal node: host DRAM behind root, GPU DRAM + NIC BAR behind ports."""
    sim = Simulator()
    amap = AddressMap()
    host = Memory("host", HOST_DRAM_BASE, 4 * MIB, MemorySpace.HOST_DRAM)
    gpu = Memory("gpu", GPU_DRAM_BASE, 8 * MIB, MemorySpace.GPU_DRAM)
    bar = MmioWindow("nic-bar", MMIO_BASE, 64 * KIB)
    for t in (host, gpu, bar):
        amap.add(t)
    fabric = PcieFabric(sim, amap, FabricConfig(p2p_pathology_enabled=p2p_enabled))
    gpu_port = fabric.attach("gpu")
    nic_port = fabric.attach("nic")
    fabric.claim(fabric.root, host)
    fabric.claim(gpu_port, gpu)
    fabric.claim(nic_port, bar)
    return sim, fabric, host, gpu, bar, gpu_port, nic_port


def run(sim, gen):
    proc = sim.process(gen)
    sim.run()
    return join_result(proc)


def test_write_moves_data_functionally():
    sim, fabric, host, gpu, bar, gpu_port, nic_port = build_node()

    def body():
        yield from gpu_port.write(HOST_DRAM_BASE + 0x100, b"from-gpu")

    run(sim, body())
    assert host.read(HOST_DRAM_BASE + 0x100, 8) == b"from-gpu"


def test_read_returns_target_data():
    sim, fabric, host, gpu, bar, gpu_port, nic_port = build_node()
    gpu.write(GPU_DRAM_BASE + 0x40, b"gpudata!")

    def body():
        data = yield from nic_port.read(GPU_DRAM_BASE + 0x40, 8)
        return data

    assert run(sim, body()) == b"gpudata!"


def test_mmio_write_triggers_handler_at_delivery_time():
    sim, fabric, host, gpu, bar, gpu_port, nic_port = build_node()
    hits = []
    bar.on_write(0x0, 0x40, lambda off, data: hits.append((sim.now, off, data)))

    def body():
        yield from gpu_port.write(MMIO_BASE + 0x10, b"\x01\x02\x03\x04")

    run(sim, body())
    assert len(hits) == 1
    t, off, data = hits[0]
    assert off == 0x10 and data == b"\x01\x02\x03\x04"
    assert t > 0.0  # delivery takes simulated time


def test_device_to_host_crosses_one_link():
    """Host access latency ~ link latency + host memory latency."""
    sim, fabric, *_rest, gpu_port, nic_port = build_node()

    def body():
        start = sim.now
        yield from gpu_port.write(HOST_DRAM_BASE, b"\x00" * 8)
        return sim.now - start

    dt = run(sim, body())
    cfg = PcieLinkConfig()
    fcfg = FabricConfig()
    assert dt == pytest.approx(cfg.latency + fcfg.host_memory_latency, rel=0.5)


def test_peer_to_peer_crosses_two_links():
    """NIC -> GPU memory is strictly slower than NIC -> host memory."""
    # Build two fresh nodes to time each path independently.
    sim1, *_r1, gp1, np1 = build_node()
    def w_host():
        start = sim1.now
        yield from np1.write(HOST_DRAM_BASE, b"\x00" * 64)
        return sim1.now - start
    t_host = run(sim1, w_host())

    sim2, *_r2, gp2, np2 = build_node()
    def w_gpu():
        start = sim2.now
        yield from np2.write(GPU_DRAM_BASE, b"\x00" * 64)
        return sim2.now - start
    t_gpu = run(sim2, w_gpu())
    assert t_gpu > t_host


def test_reads_cost_more_than_writes():
    """Round trip vs posted: the reason notification polling hurts (§V-A3)."""
    sim1, *_r1, gp1, np1 = build_node()
    def w():
        start = sim1.now
        yield from gp1.write(HOST_DRAM_BASE, b"\x00" * 16)
        return sim1.now - start
    t_write = run(sim1, w())

    sim2, *_r2, gp2, np2 = build_node()
    def r():
        start = sim2.now
        yield from gp2.read(HOST_DRAM_BASE, 16)
        return sim2.now - start
    t_read = run(sim2, r())
    assert t_read > t_write


def test_p2p_pathology_degrades_large_reads():
    def time_read(stream_total, enabled):
        sim, fabric, host, gpu, bar, gpu_port, nic_port = build_node(p2p_enabled=enabled)

        def body():
            start = sim.now
            yield from nic_port.read(GPU_DRAM_BASE, 256 * KIB,
                                     stream_total=stream_total)
            return sim.now - start

        return run(sim, body())

    small_stream = time_read(stream_total=256 * KIB, enabled=True)
    large_stream = time_read(stream_total=4 * MIB, enabled=True)
    large_no_path = time_read(stream_total=4 * MIB, enabled=False)
    assert large_stream > small_stream * 1.3
    assert large_no_path == pytest.approx(small_stream, rel=1e-6)


def test_host_initiated_reads_unaffected_by_pathology():
    sim, fabric, host, gpu, bar, gpu_port, nic_port = build_node(p2p_enabled=True)

    def body():
        start = sim.now
        yield from fabric.root.read(GPU_DRAM_BASE, 64 * KIB, stream_total=16 * MIB)
        return sim.now - start

    t_large = run(sim, body())

    sim2, fabric2, *_rest, gp2, np2 = build_node(p2p_enabled=True)
    def body2():
        start = sim2.now
        yield from fabric2.root.read(GPU_DRAM_BASE, 64 * KIB, stream_total=1 * KIB)
        return sim2.now - start

    t_small = run(sim2, body2())
    assert t_large == pytest.approx(t_small, rel=1e-6)


def test_bandwidth_serialization_scales_with_size():
    sim, fabric, *_rest, gpu_port, nic_port = build_node()

    def timed_write(n):
        def body():
            start = sim.now
            yield from gpu_port.write(HOST_DRAM_BASE, b"\x00" * n)
            return sim.now - start
        return run(sim, body())

    t1 = timed_write(1 * KIB)
    sim2, fabric2, *_rest2, gp2, np2 = build_node()
    def body2():
        start = sim2.now
        yield from gp2.write(HOST_DRAM_BASE, b"\x00" * (1 * MIB))
        return sim2.now - start
    t2 = run(sim2, body2())
    # 1 MiB should take roughly 1024x the serialization of 1 KiB, far more
    # than fixed latencies.
    assert t2 > t1 * 100


def test_concurrent_writers_contend_on_link():
    sim, fabric, *_rest, gpu_port, nic_port = build_node()
    done = []

    def writer(tag):
        yield from gpu_port.write(HOST_DRAM_BASE + 0x1000, b"\x00" * (1 * MIB))
        done.append((tag, sim.now))

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    # Second writer finishes roughly twice as late as a lone writer would.
    assert done[1][1] > done[0][1] * 1.5


def test_zero_length_accesses_rejected():
    sim, fabric, *_rest, gpu_port, nic_port = build_node()

    def bad_write():
        yield from gpu_port.write(HOST_DRAM_BASE, b"")

    sim.process(bad_write())
    with pytest.raises(PcieError):
        sim.run()


def test_unclaimed_target_rejected():
    sim = Simulator()
    amap = AddressMap()
    mem = Memory("host", 0, 1024, MemorySpace.HOST_DRAM)
    amap.add(mem)
    fabric = PcieFabric(sim, amap)
    port = fabric.attach("dev")

    def body():
        yield from port.read(0, 8)

    sim.process(body())
    with pytest.raises(PcieError):
        sim.run()


def test_duplicate_port_name_rejected():
    sim, fabric, *_rest = build_node()
    with pytest.raises(PcieError):
        fabric.attach("gpu")


@pytest.mark.parametrize("field, value", [
    ("host_memory_latency", -1e-9),
    ("gpu_memory_latency", -1e-9),
    ("mmio_latency", -1e-9),
    ("p2p_read_threshold", 0),
    ("p2p_read_threshold", -1),
    ("p2p_read_floor", 0.0),
    ("p2p_read_floor", -1.0),
])
def test_bad_fabric_config_rejected_when_built(field, value):
    with pytest.raises(ConfigError):
        FabricConfig(**{field: value})
