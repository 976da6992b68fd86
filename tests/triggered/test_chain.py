"""Descriptor chains end to end: stage once, fire by counter, zero MMIO."""

import pytest

from repro.cluster import build_extoll_cluster
from repro.errors import TriggeredError
from repro.extoll import NotifyFlags, RmaOp, RmaWorkRequest
from repro.triggered import ChainState, TriggeredUnit
from repro.units import KIB, US


@pytest.fixture
def testbed():
    cluster = build_extoll_cluster()
    a, b = cluster.a, cluster.b
    a.nic.open_port(0)
    b.nic.open_port(0)
    return cluster, a, b, TriggeredUnit(a), TriggeredUnit(b)


def _staged_put(a, b, payload: bytes, port: int = 0, dst_node: int = 1,
                flags=NotifyFlags.NONE):
    """Register a src/dst pair and return the WR that puts payload a→b."""
    src = a.host_malloc(len(payload))
    dst = b.host_malloc(len(payload))
    a.host_mem.write(src.base, payload)
    src_nla = a.nic.register_memory(src)
    dst_nla = b.nic.register_memory(dst)
    wr = RmaWorkRequest(op=RmaOp.PUT, port=port, dst_node=dst_node,
                        src_nla=src_nla.base, dst_nla=dst_nla.base,
                        size=len(payload), flags=flags)
    return wr, dst


def _fire(unit, chain):
    """Set ``chain`` off: arm it on a fresh counter and tick that once."""
    go = unit.counter("go")
    chain.arm(go, 1)
    go.add()
    return chain


def test_fired_chain_moves_data_with_zero_mmio(testbed):
    cluster, a, b, ua, _ = testbed
    wr1, dst1 = _staged_put(a, b, b"x" * 1 * KIB)
    wr2, dst2 = _staged_put(a, b, b"y" * 2 * KIB)
    chain = _fire(ua, ua.chain("pair").append(wr1).append(wr2))
    cluster.sim.run(until=200 * US)
    assert b.host_mem.read(dst1.base, 1 * KIB) == b"x" * 1 * KIB
    assert b.host_mem.read(dst2.base, 2 * KIB) == b"y" * 2 * KIB
    assert chain.state is ChainState.COMPLETED
    assert chain.completed.processed
    # NIC-internal fire: neither a WR post nor a doorbell crossed the BAR.
    assert a.nic.batch_doorbells == 0
    assert a.nic.trigger_doorbells == 0
    assert ua.stats.descriptors_fired == 2


def test_armed_chain_fires_when_counter_reaches_threshold(testbed):
    cluster, a, b, ua, _ = testbed
    wr, dst = _staged_put(a, b, b"z" * 64)
    c = ua.counter("go")
    chain = ua.chain().append(wr).arm(c, 2)
    assert chain.state is ChainState.ARMED
    assert ua.armed_chains == 1
    cluster.sim.run(until=10 * US)
    assert b.host_mem.read(dst.base, 64) != b"z" * 64  # not yet
    c.add()
    cluster.sim.run(until=50 * US)
    assert chain.state is ChainState.ARMED
    c.add()
    cluster.sim.run(until=200 * US)
    assert chain.state is ChainState.COMPLETED
    assert b.host_mem.read(dst.base, 64) == b"z" * 64
    assert ua.armed_chains == 0


def test_device_tick_doorbell_fires_chain(testbed):
    """One 8-byte GPU store rings the counter doorbell; the chain fires with
    no descriptor traffic from the device."""
    cluster, a, b, ua, _ = testbed
    from repro.memory import AddressRange
    port = a.nic.port_state(0)
    a.gpu.map_mmio(AddressRange(port.page_addr,
                                a.nic.config.requester_page_size))
    wr, dst = _staged_put(a, b, b"t" * 128)
    c = ua.counter("kick")
    ua.chain().append(wr).arm(c, 1)

    def kernel(ctx):
        yield from ua.device_tick(ctx, port.page_addr, c)
        yield from ctx.fence_system()

    h = a.gpu.launch(kernel)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 200 * US)
    assert b.host_mem.read(dst.base, 128) == b"t" * 128
    assert a.nic.trigger_doorbells == 1
    assert ua.stats.doorbells == 1
    assert c.value == 1


def test_arrival_counting_fires_remote_chain(testbed):
    """Puts-with-counting: a put landing on B ticks B's counter, which fires
    B's pre-staged response chain — no B-side host/GPU involvement."""
    cluster, a, b, ua, ub = testbed
    # B stages a response put (b -> a) armed on one arrival in its window.
    resp_wr, resp_dst = _staged_put(b, a, b"pong" * 16, dst_node=0)
    arrivals = ub.counter("arrivals")
    # A's request lands in this window on B.
    req_wr, req_dst = _staged_put(a, b, b"ping" * 16)
    ub.count_arrivals(arrivals, nla_base=req_wr.dst_nla, nla_size=64)
    ub.chain("response").append(resp_wr).arm(arrivals, 1)

    _fire(ua, ua.chain("request").append(req_wr))
    cluster.sim.run(until=500 * US)
    assert b.host_mem.read(req_dst.base, 64) == b"ping" * 16
    assert a.host_mem.read(resp_dst.base, 64) == b"pong" * 16
    assert arrivals.value == 1


def test_count_arrivals_filters_and_unregisters(testbed):
    cluster, a, b, ua, ub = testbed
    wr, _ = _staged_put(a, b, b"m" * 64)
    hits = ub.counter("hits")
    misses = ub.counter("misses")
    off = ub.count_arrivals(misses, nla_base=wr.dst_nla + 0x1000, nla_size=64)
    ub.count_arrivals(hits, nla_base=wr.dst_nla, nla_size=64)
    _fire(ua, ua.chain().append(wr))
    cluster.sim.run(until=200 * US)
    assert hits.value == 1
    assert misses.value == 0
    off()
    assert len(b.nic.rma.put_listeners) == 1


def test_chain_to_chain_dependency(testbed):
    """A completed chain ticks the counter a second chain is armed on — a
    two-stage round staged entirely up front, set off by one tick."""
    cluster, a, b, ua, _ = testbed
    wr1, dst1 = _staged_put(a, b, b"1" * 64)
    wr2, dst2 = _staged_put(a, b, b"2" * 64)
    stage2_ready = ua.counter("stage2")
    first = ua.chain("first").append(wr1).on_complete_tick(stage2_ready)
    second = ua.chain("second").append(wr2).arm(stage2_ready, 1)

    start = ua.counter("start")
    first.arm(start, 1)
    start.add()
    cluster.sim.run(until=500 * US)
    assert first.state is ChainState.COMPLETED
    assert second.state is ChainState.COMPLETED
    assert b.host_mem.read(dst1.base, 64) == b"1" * 64
    assert b.host_mem.read(dst2.base, 64) == b"2" * 64


def test_completed_event_is_waitable(testbed):
    cluster, a, b, ua, _ = testbed
    wr, _ = _staged_put(a, b, b"w" * 64)
    chain = ua.chain().append(wr)

    def waiter(ctx):
        yield from ctx.sleep(1 * US)
        _fire(ua, chain)
        yield chain.completed
        return cluster.sim.now

    p = a.cpu.spawn(waiter)
    cluster.sim.run_until_complete(p, limit=1.0)
    assert chain.state is ChainState.COMPLETED


def test_replace_wr_patches_descriptor(testbed):
    """The rendezvous pattern: stage with a placeholder destination, patch
    once the CTS carries the real NLA."""
    cluster, a, b, ua, _ = testbed
    wr, _ = _staged_put(a, b, b"r" * 64)
    real_dst = b.host_malloc(64)
    real_nla = b.nic.register_memory(real_dst)
    chain = ua.chain().append(wr)
    chain.replace_wr(0, dst_nla=real_nla.base)
    _fire(ua, chain)
    cluster.sim.run(until=200 * US)
    assert b.host_mem.read(real_dst.base, 64) == b"r" * 64


def test_lifecycle_violations_raise(testbed):
    cluster, a, b, ua, _ = testbed
    c = ua.counter()
    with pytest.raises(TriggeredError):
        ua.chain().arm(c, 1)          # empty chain
    wr, _ = _staged_put(a, b, b"v" * 64)
    chain = _fire(ua, ua.chain().append(wr))
    with pytest.raises(TriggeredError):
        chain.arm(c, 1)               # already fired
    with pytest.raises(TriggeredError):
        chain.append(wr)              # sealed after fire


def test_unknown_counter_doorbell_is_async_error(testbed):
    cluster, a, b, ua, _ = testbed
    port = a.nic.port_state(0)
    word = (77 << 16) | 1

    def poke(ctx):
        yield from ctx.write_u64(
            port.page_addr + a.nic.config.trigger_doorbell_offset, word)
        yield from ctx.sleep(1 * US)

    p = a.cpu.spawn(poke)
    with pytest.raises(TriggeredError, match="unknown counter 77"):
        cluster.sim.run_until_complete(p, limit=1.0)


def test_stats_snapshot_and_diff(testbed):
    cluster, a, b, ua, _ = testbed
    wr, _ = _staged_put(a, b, b"s" * 64)
    before = ua.stats.snapshot()
    c = ua.counter()
    ua.chain().append(wr).arm(c, 1)
    assert ua.stats.snapshot()["armed"] == 1
    c.add()
    cluster.sim.run(until=200 * US)
    delta = ua.stats.diff(before)
    assert delta["chains_fired"] == 1
    assert delta["chains_completed"] == 1
    assert delta["descriptors_fired"] == 1
    assert delta["armed"] == 0  # gauge, not a delta
