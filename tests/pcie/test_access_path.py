"""Property tests of the PCIe access path against a reference model.

The reference is the original per-hop arithmetic, kept here as it was:
``chunk_payload`` splits a stream into TLP payloads, and ``stream`` walks
the hops with the direction toggle and the completion cap of the old
``PcieFabric._stream``.  A hop holds its direction for
``(24 + (wire - 24)) / bandwidth`` and then adds the link latency; it books
``wire - 24`` bytes on the link.  The bench workloads run only the default
link config and a few access sizes, so other configs and sizes one byte
either side of a multiple of ``max_payload`` or ``max_read_request`` are
checked only here.
"""

from hypothesis import given, settings, strategies as st

from repro.memory import (
    GPU_DRAM_BASE,
    HOST_DRAM_BASE,
    AddressMap,
    Memory,
    MemorySpace,
)
from repro.pcie import FabricConfig, PcieFabric, PcieLinkConfig
from repro.sim import Simulator
from repro.units import KIB, MIB

TLP = 24
PATHS = ("root->device", "device->root", "device->device", "device->self")


# -- the reference ----------------------------------------------------------------

def chunk_payload(total, max_payload):
    """Split ``total`` bytes into TLP-payload-sized chunks."""
    full, rest = divmod(total, max_payload)
    return [max_payload] * full + ([rest] if rest else [])


def stream(hops, upstream, nbytes, cap=None):
    """Per hop: the link, its direction, the wire bytes and the rate."""
    for link in hops:
        bw = link.config.bandwidth
        if cap is not None:
            bw = min(bw, cap)
        wire = nbytes + TLP * len(chunk_payload(nbytes, link.config.max_payload))
        yield link, upstream, wire, bw
        upstream = not upstream if len(hops) > 1 else upstream


def read_cap(cfg, target, src_is_root, stream_total, base_bw):
    """The P2P read pathology's completion bandwidth."""
    if not cfg.p2p_pathology_enabled or target.space is not MemorySpace.GPU_DRAM:
        return base_bw
    if src_is_root:
        return base_bw
    total = stream_total if stream_total is not None else 0
    if total >= cfg.p2p_read_threshold:
        scaled = base_bw * cfg.p2p_read_threshold / (2 * total)
        return min(base_bw, max(cfg.p2p_read_floor, scaled))
    return base_bw


def reference(fabric, op, src, owner, target, nbytes, stream_total, free, books):
    """Completion time of one access started at 0.  ``free`` maps each
    ``(link, upstream)`` direction to the time an earlier access released
    it; ``books`` accumulates each direction's booked bytes."""
    t = 0.0

    def cross(steps):
        nonlocal t
        for link, up, wire, bw in steps:
            t = max(t, free.get((link.name, up), t))
            t = t + (TLP + (wire - TLP)) / bw
            free[link.name, up] = t
            books[link.name, up] = books.get((link.name, up), 0) + wire - TLP
            t = t + link.config.latency

    hops = [] if src is owner else [p.link for p in (src, owner) if p.link is not None]
    cfg = fabric.config
    latency = (cfg.host_memory_latency if target.space is MemorySpace.HOST_DRAM
               else cfg.gpu_memory_latency)
    if op == "write":
        cross(stream(hops, src is not fabric.root, nbytes))
        return t + latency
    n_requests = len(chunk_payload(nbytes, hops[0].config.max_read_request)) \
        if hops else 1
    if hops:
        cross(stream(hops, src is not fabric.root,
                     max(TLP * n_requests - TLP, 1)))
    t = t + latency
    cap = read_cap(cfg, target, src is fabric.root, stream_total,
                   hops[0].config.bandwidth if hops else float("inf"))
    cross(stream(list(reversed(hops)), owner.link is not None, nbytes,
                 cap if hops else None))
    return t


# -- strategies ---------------------------------------------------------------------

link_configs = st.just(PcieLinkConfig()) | st.builds(
    PcieLinkConfig,
    bandwidth=st.floats(1e8, 5e10),
    latency=st.floats(0.0, 1e-6),
    max_payload=st.integers(16, 4096),
    max_read_request=st.integers(16, 4096))

fabric_configs = st.just(FabricConfig()) | st.builds(
    FabricConfig,
    host_memory_latency=st.floats(0.0, 1e-6),
    gpu_memory_latency=st.floats(0.0, 1e-6),
    p2p_read_threshold=st.integers(1, 8 * MIB),
    p2p_read_floor=st.floats(1e7, 1e10),
    p2p_pathology_enabled=st.booleans())


@st.composite
def sizes(draw, configs):
    """Any size, or one byte either side of a TLP size limit's multiple."""
    if draw(st.booleans()):
        return draw(st.integers(1, 64 * KIB))
    unit = draw(st.sampled_from([n for c in configs
                                 for n in (c.max_payload, c.max_read_request)]))
    return draw(st.integers(1, 16)) * unit + draw(st.sampled_from((-1, 0, 1)))


@st.composite
def cases(draw):
    configs = (draw(link_configs), draw(link_configs))
    return {
        "path": draw(st.sampled_from(PATHS)),
        "op": draw(st.sampled_from(("read", "write"))),
        "links": configs,
        "fabric": draw(fabric_configs),
        "sizes": (draw(sizes(configs)), draw(sizes(configs))),
        "stream_total": draw(st.none() | st.integers(1, 16 * MIB)),
    }


# -- the model under test -------------------------------------------------------------

def build(case):
    amap = AddressMap()
    host = Memory("host", HOST_DRAM_BASE, 1 * MIB, MemorySpace.HOST_DRAM)
    gpu = Memory("gpu", GPU_DRAM_BASE, 1 * MIB, MemorySpace.GPU_DRAM)
    amap.add(host)
    amap.add(gpu)
    sim = Simulator()
    fabric = PcieFabric(sim, amap, case["fabric"])
    gpu_port = fabric.attach("gpu", case["links"][0])
    nic_port = fabric.attach("nic", case["links"][1])
    fabric.claim(fabric.root, host)
    fabric.claim(gpu_port, gpu)
    src, target = {"root->device": (fabric.root, gpu),
                   "device->root": (gpu_port, host),
                   "device->device": (nic_port, gpu),
                   "device->self": (gpu_port, gpu)}[case["path"]]
    return sim, fabric, src, target, fabric.owner_of(target)


def run_accesses(case, count):
    """Start ``count`` accesses of the case at time 0; return their
    completions in order, the reference's, and both sets of books."""
    sim, fabric, src, target, owner = build(case)
    done, expected, free, books = [], [], {}, {}
    for i, nbytes in enumerate(case["sizes"][:count]):
        addr = target.range.base + i * 64 * KIB
        if case["op"] == "write":
            access = src.write(addr, bytes(nbytes))
        else:
            access = src.read(addr, nbytes, case["stream_total"])

        def body(i=i, access=access):
            yield from access
            done.append((i, sim.now))

        sim.process(body())
        expected.append((i, reference(fabric, case["op"], src, owner, target,
                                      nbytes, case["stream_total"], free, books)))
    sim.run()
    links = [port.link for port in fabric.ports.values() if port.link]
    booked = {(link.name, up): link.bytes_up if up else link.bytes_down
              for link in links for up in (True, False)}
    return done, expected, booked, {key: books.get(key, 0) for key in booked}


@settings(max_examples=300, deadline=None)
@given(cases())
def test_uncontended_access_matches_reference(case):
    done, expected, booked, books = run_accesses(case, 1)
    assert done == expected
    assert booked == books


@settings(max_examples=200, deadline=None)
@given(cases())
def test_two_accesses_on_one_path_complete_fifo_at_reference_times(case):
    done, expected, booked, books = run_accesses(case, 2)
    assert done == expected
    assert booked == books
