"""Tests for the GPU messaging library (the §VIII future-work layer)."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import build_extoll_cluster
from repro.core.msglib import Channel, ChannelEnd, create_channel, gpu_recv, gpu_send
from repro.errors import BenchmarkError
from repro.sim import join_result


def make_channel(slot_size=256, slots=8):
    cluster = build_extoll_cluster()
    chan = create_channel(cluster, slot_size=slot_size, slots=slots)
    return cluster, chan


def run_pair(cluster, chan, messages):
    """Send `messages` from node 0 to node 1; return what node 1 received."""
    fwd = chan.end_for_sender(0)
    rev = chan.end_for_sender(1)

    def sender(ctx):
        for msg in messages:
            yield from gpu_send(ctx, fwd, msg)

    def receiver(ctx):
        got = []
        for _ in messages:
            data = yield from gpu_recv(ctx, fwd, rev)
            got.append(data)
        return got

    hs = cluster.a.gpu.launch(sender)
    hr = cluster.b.gpu.launch(receiver)
    cluster.sim.run_until_complete(hs, hr, limit=30.0)
    return hr.block_result(0)


def test_single_message_roundtrip():
    cluster, chan = make_channel()
    got = run_pair(cluster, chan, [b"hello, gpu messaging"])
    assert got == [b"hello, gpu messaging"]


def test_many_messages_in_order_with_wraparound():
    cluster, chan = make_channel(slots=4)
    msgs = [f"message-{i:03d}".encode() for i in range(20)]  # 5x ring depth
    assert run_pair(cluster, chan, msgs) == msgs


def test_flow_control_blocks_fast_sender():
    """A sender racing far ahead of a slow receiver must not overwrite
    unconsumed slots."""
    cluster, chan = make_channel(slots=4)
    fwd = chan.end_for_sender(0)
    rev = chan.end_for_sender(1)
    msgs = [bytes([i]) * 32 for i in range(16)]

    def sender(ctx):
        for msg in msgs:
            yield from gpu_send(ctx, fwd, msg)

    def slow_receiver(ctx):
        got = []
        for _ in msgs:
            yield from ctx.alu(5000)  # dawdle before each receive
            got.append((yield from gpu_recv(ctx, fwd, rev)))
        return got

    hs = cluster.a.gpu.launch(sender)
    hr = cluster.b.gpu.launch(slow_receiver)
    cluster.sim.run_until_complete(hs, hr, limit=30.0)
    assert hr.block_result(0) == msgs


def test_bidirectional_traffic():
    cluster, chan = make_channel()
    a2b = chan.end_for_sender(0)
    b2a = chan.end_for_sender(1)

    def node_a(ctx):
        yield from gpu_send(ctx, a2b, b"ping from A")
        reply = yield from gpu_recv(ctx, b2a, a2b)
        return reply

    def node_b(ctx):
        msg = yield from gpu_recv(ctx, a2b, b2a)
        yield from gpu_send(ctx, b2a, b"re: " + msg)

    ha = cluster.a.gpu.launch(node_a)
    hb = cluster.b.gpu.launch(node_b)
    cluster.sim.run_until_complete(ha, hb, limit=30.0)
    assert ha.block_result(0) == b"re: ping from A"


def test_empty_and_full_slot_payloads():
    cluster, chan = make_channel(slot_size=64)
    fwd = chan.end_for_sender(0)
    full = bytes(range(56))  # slot_size - header
    assert run_pair(cluster, chan, [b"x", full, b"yy"]) == [b"x", full, b"yy"]


def test_oversized_message_rejected():
    cluster, chan = make_channel(slot_size=64)
    fwd = chan.end_for_sender(0)

    def sender(ctx):
        yield from gpu_send(ctx, fwd, bytes(57))

    h = cluster.a.gpu.launch(sender)
    with pytest.raises(BenchmarkError):
        cluster.sim.run(until=cluster.sim.now + 1e-3)
    assert not h.ok


def test_bad_channel_geometry_rejected():
    cluster = build_extoll_cluster()
    with pytest.raises(BenchmarkError):
        create_channel(cluster, slot_size=8)
    with pytest.raises(BenchmarkError):
        create_channel(cluster, slot_size=63)
    with pytest.raises(BenchmarkError):
        create_channel(cluster, slots=1)


def test_no_pcie_polling_anywhere():
    """§VI claims: arrival and credit polling run out of device memory, so
    the GPUs issue zero PCIe reads."""
    cluster, chan = make_channel(slots=4)
    msgs = [bytes([i]) * 16 for i in range(12)]
    run_pair(cluster, chan, msgs)
    assert cluster.a.gpu.counters.sysmem_read_transactions == 0
    assert cluster.b.gpu.counters.sysmem_read_transactions == 0


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(msgs=st.lists(st.binary(min_size=0, max_size=120), min_size=1,
                     max_size=12))
def test_property_arbitrary_messages_arrive_intact(msgs):
    cluster, chan = make_channel(slot_size=128, slots=4)
    assert run_pair(cluster, chan, msgs) == msgs
