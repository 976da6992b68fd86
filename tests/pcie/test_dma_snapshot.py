"""A multi-chunk DMA read returns copy-on-write snapshots, not copies.

The reference is the old gather, kept here: at each chunk's collect turn
it reads the chunk's bytes from the source store, and it joins them at the
end.  A wrapper around the fabric's collect step records that reference
in the same run, so whatever the writers did, the payload's ``bytes()``
and the destination after the receiving DMA write must equal it.

A dry run without writers first records each chunk's collect turn.  A
writer process per write then sleeps from time 0 to an exact collect turn
(its wake-up was scheduled before the DMA's, so it runs before the
collect; one more zero timeout puts it after), or to a random time up to
the end of the receiving write.  Direct store writes and posted writes
from the memory's own port cross no link, so they leave the collect turns
where the dry run found them; CPU stores to GPU memory cross its link and
may move later turns, which loses only that example's ties.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.cpu import Cpu, HostThread
from repro.faults import FaultInjector, FaultPlan
from repro.memory import (
    GPU_DRAM_BASE,
    HOST_DRAM_BASE,
    AddressMap,
    ByteStore,
    DmaPayload,
    Memory,
    MemorySpace,
    MmioWindow,
)
from repro.network import NetworkFabric, Packet, PacketKind
from repro.pcie import DmaConfig, DmaEngine, PcieFabric
from repro.sim import Simulator

CHUNK = 64
MEM = 4096
SRC_OFF = 1024      # the read's source range starts here in its memory
DST_OFF = 3072      # the receiving write's range, which no writer touches

MUTATORS = ("write", "write_u32", "write_u64", "fill", "copy", "cpu",
            "posted")


class Rig:
    """Host and GPU memory, a reading and a writing DMA engine on two NIC
    ports, and a CPU on the root port."""

    def __init__(self, src_on_gpu: bool, dst_on_gpu: bool) -> None:
        self.sim = Simulator()
        amap = AddressMap()
        self.host = Memory("host", HOST_DRAM_BASE, MEM, MemorySpace.HOST_DRAM)
        self.gpu = Memory("gpu", GPU_DRAM_BASE, MEM, MemorySpace.GPU_DRAM)
        amap.add(self.host)
        amap.add(self.gpu)
        self.fabric = PcieFabric(self.sim, amap)
        gpu_port = self.fabric.attach("gpu")
        self.fabric.claim(self.fabric.root, self.host)
        self.fabric.claim(gpu_port, self.gpu)
        config = DmaConfig(chunk_bytes=CHUNK)
        self.reader = DmaEngine(self.sim, self.fabric.attach("nic"), "rd",
                                config)
        self.writer = DmaEngine(self.sim, self.fabric.attach("nic2"), "wr",
                                config)
        self.cpu = Cpu(self.sim)
        self.cpu.attach(self.fabric.root, self.host)
        self.src = self.gpu if src_on_gpu else self.host
        self.dst = self.gpu if dst_on_gpu else self.host
        self.src_port = gpu_port if src_on_gpu else self.fabric.root
        self.src.write(self.src.range.base, random.Random(1).randbytes(MEM))
        self.turns = []         # sim time of each chunk's collect
        self.chunks = []        # the reference: each chunk's bytes then
        self.held = {}
        real = self.fabric._collect_read

        def collect(target, offset, length, into):
            self.turns.append(self.sim.now)
            self.chunks.append(target.store.read(offset, length))
            return real(target, offset, length, into)

        self.fabric._collect_read = collect

    def transfer(self, length: int):
        src = self.src.range.base + SRC_OFF
        dst = self.dst.range.base + DST_OFF
        payload = yield from self.reader.read(src, length)
        self.held["payload"] = payload
        self.held["read_end"] = self.sim.now
        yield from self.writer.write(dst, payload)
        self.held["write_end"] = self.sim.now


def apply(rig: Rig, kind: str, off: int, data: bytes):
    """Process: one write of ``data`` at store offset ``off`` of the
    source memory, through the mutator ``kind``."""
    store = rig.src.store
    addr = rig.src.range.base + off
    if kind == "write":
        store.write(off, data)
    elif kind == "write_u32":
        store.write_u32(off, int.from_bytes(data[:4], "little"))
    elif kind == "write_u64":
        store.write_u64(off, int.from_bytes(data[:8], "little"))
    elif kind == "fill":
        store.fill(off, len(data), data[0])
    elif kind == "copy":
        other = ByteStore(len(data))
        other.write(0, data)
        ByteStore.copy(other, 0, store, off, len(data))
    elif kind == "cpu":
        yield from HostThread(rig.cpu).write(addr, data)
    else:
        yield from rig.src_port.write(addr, data)


def _padded(kind: str, data: bytes) -> bytes:
    return data.ljust({"write_u32": 4, "write_u64": 8}.get(kind, 1), b"\x5a")


write_op = st.tuples(
    st.sampled_from(MUTATORS),
    st.one_of(st.tuples(st.just("tie"), st.integers(0, 7), st.booleans()),
              st.tuples(st.just("at"), st.floats(0.0, 1.2), st.just(False))),
    st.integers(-16, 5 * CHUNK),          # offset relative to the source
    st.binary(min_size=1, max_size=24),
)


def prepare(src_on_gpu, dst_on_gpu, length, ops=()):
    rig = Rig(src_on_gpu, dst_on_gpu)
    rig.sim.process(rig.transfer(length))
    plan = []
    for kind, (how, when, after), rel, data in ops:
        data = _padded(kind, data)
        off = min(max(SRC_OFF + rel, 0), DST_OFF - len(data))
        plan.append((kind, how, when, after, off, data))
    return rig, plan


def start_writers(rig, plan, turns, end):
    def writer(kind, delay, after, off, data):
        yield rig.sim.timeout(delay)
        if after:
            yield rig.sim.timeout(0)
        yield from apply(rig, kind, off, data)

    for kind, how, when, after, off, data in plan:
        delay = turns[when % len(turns)] if how == "tie" else when * end
        rig.sim.process(writer(kind, delay, after, off, data))


@settings(max_examples=300, deadline=None)
@given(src_on_gpu=st.booleans(), dst_on_gpu=st.booleans(),
       length=st.integers(CHUNK + 1, 5 * CHUNK),
       ops=st.lists(write_op, max_size=10))
def test_property_payload_is_the_source_at_each_collect(src_on_gpu,
                                                       dst_on_gpu, length,
                                                       ops):
    dry, _ = prepare(src_on_gpu, dst_on_gpu, length)
    dry.sim.run()
    rig, plan = prepare(src_on_gpu, dst_on_gpu, length, ops)
    start_writers(rig, plan, dry.turns, dry.held["write_end"])
    rig.sim.run()

    reference = b"".join(rig.chunks)
    payload = rig.held["payload"]
    assert isinstance(payload, DmaPayload)
    assert len(payload) == length
    assert bytes(payload) == reference
    assert rig.dst.read(rig.dst.range.base + DST_OFF, length) == reference
    # Freeing the payload unpins what is still pinned.
    rig.held.clear()
    del payload
    assert rig.src.store._pins == []


def _sealed(payload, seed):
    """The corrupted clone a link with corruption 1.0 makes of a sealed
    packet carrying ``payload``, and the packet's own checks."""
    sim = Simulator(seed=seed)
    fabric = NetworkFabric(sim)
    fabric.connect(0, 1)
    injector = FaultInjector(sim, FaultPlan.uniform(corrupt=1.0))
    injector.attach(fabric)
    packet = Packet(PacketKind.RMA_PUT, 0, 1, 32, payload, seq=0)
    crc = packet.compute_checksum()
    packet.checksum = crc
    corrupt = packet.is_corrupt
    [state] = injector.states.values()
    bad = state.filter_tx(packet)
    return crc, corrupt, bytes(bad.payload), bad.checksum, bad.is_corrupt


@settings(max_examples=50, deadline=None)
@given(length=st.integers(CHUNK + 1, 5 * CHUNK), seed=st.integers(0, 99),
       ops=st.lists(write_op, max_size=4))
def test_property_checks_read_a_payload_as_its_bytes(length, seed, ops):
    dry, _ = prepare(True, False, length)
    dry.sim.run()
    rig, plan = prepare(True, False, length, ops)
    start_writers(rig, plan, dry.turns, dry.held["read_end"])
    rig.sim.run()
    payload = rig.held["payload"]
    assert _sealed(payload, seed) == _sealed(bytes(payload), seed)


def test_one_chunk_reads_bytes_and_adjacent_chunks_share_a_snapshot():
    rig = Rig(src_on_gpu=True, dst_on_gpu=False)
    base = rig.gpu.range.base + SRC_OFF
    got = {}

    def body():
        got["one"] = yield from rig.reader.read(base, CHUNK)
        got["many"] = yield from rig.reader.read(base, 4 * CHUNK)

    rig.sim.process(body())
    rig.sim.run()
    assert type(got["one"]) is bytes
    assert len(rig.gpu.store._pins) == 1
    assert len(got["many"]._parts) == 1
    assert bytes(got["many"]) == b"".join(rig.chunks[1:])


def test_payload_written_over_its_own_source():
    """The first chunk the write lands copies the snapshot out; later
    chunks read the copy."""
    rig = Rig(src_on_gpu=False, dst_on_gpu=False)
    base = rig.host.range.base + SRC_OFF

    def body():
        data = yield from rig.reader.read(base, 3 * CHUNK)
        yield from rig.writer.write(base + 10, data)

    rig.sim.process(body())
    rig.sim.run()
    reference = b"".join(rig.chunks)
    assert rig.host.read(base + 10, 3 * CHUNK) == reference
    assert rig.host.store._pins == []


def test_payload_through_an_mmio_window():
    """A chunk from a window is kept as bytes; a window written with a
    payload sees each chunk's bytes."""
    sim = Simulator()
    amap = AddressMap()
    window = MmioWindow("bar", GPU_DRAM_BASE, MEM)
    amap.add(window)
    fabric = PcieFabric(sim, amap)
    fabric.claim(fabric.root, window)
    dma = DmaEngine(sim, fabric.attach("nic"), config=DmaConfig(CHUNK))
    seen = []
    window.on_write(2048, 1024, lambda off, data: seen.append(data))
    window.store.write(0, bytes(range(256)))

    def body():
        data = yield from dma.read(GPU_DRAM_BASE, 200)
        assert isinstance(data, DmaPayload)
        yield from dma.write(GPU_DRAM_BASE + 2048, data)

    sim.process(body())
    sim.run()
    assert seen == [bytes(range(64)), bytes(range(64, 128)),
                    bytes(range(128, 192)), bytes(range(192, 200))]
