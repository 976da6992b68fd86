"""Property tests: the slot-ring protocol of msglib must hold for ANY ring
geometry and arbitrarily large sequence numbers (seq wraparound).  Every
rule is read from the library itself — the drivers (GPU and host threads,
the MPI engine, the retransmission engine) all take it from there."""

import pytest
from hypothesis import given, strategies as st

from repro.core.msglib import (
    ChannelEnd,
    decode_header,
    encode_header,
    gate_send,
    payload_capacity,
)
from repro.extoll import NotifyFlags, RmaOp
from repro.memory import AddressRange, Memory, MemorySpace
from repro.sim import NullTracer


def make_end(slot_size, slots, credit_interval=0, bases=(0,) * 8,
             port_id=0, src=0, dst=1):
    """An end over eight disjoint ranges (2 MiB apart, shifted by
    ``bases`` pages): staging, credit word, ring, credit staging, each as
    an address and as an NLA."""
    ring_bytes = slot_size * slots
    (staging, staging_nla, credit, credit_nla,
     ring, ring_nla, cstage, cstage_nla) = (
        AddressRange(0x10000 + i * 0x200000 + b * 0x1000,
                     ring_bytes if i in (0, 1, 4, 5) else 8)
        for i, b in enumerate(bases))
    return ChannelEnd(src_node_id=src, dst_node_id=dst, port_id=port_id,
                      page_addr=0, staging=staging, staging_nla=staging_nla,
                      credit_word=credit, credit_word_nla=credit_nla,
                      ring=ring, ring_nla=ring_nla, slot_size=slot_size,
                      slots=slots, credit_staging=cstage,
                      credit_staging_nla=cstage_nla,
                      credit_interval=credit_interval)


slot_sizes = st.integers(min_value=2, max_value=512).map(lambda w: w * 8)
slot_counts = st.integers(min_value=1, max_value=256)
seqs = st.integers(min_value=1, max_value=2**48 - 1)
bases = st.tuples(*[st.integers(min_value=0, max_value=63)] * 8)
node_ids = st.integers(min_value=0, max_value=255)


@given(slot_sizes, slot_counts, seqs)
def test_slot_offset_stays_inside_the_ring(slot_size, slots, seq):
    end = make_end(slot_size, slots)
    off = end.slot_offset(seq)
    assert 0 <= off < slots * slot_size
    assert off % slot_size == 0


@given(slot_sizes, slot_counts, seqs)
def test_slot_offset_is_periodic_in_ring_depth(slot_size, slots, seq):
    end = make_end(slot_size, slots)
    assert end.slot_offset(seq) == end.slot_offset(seq + slots)
    assert end.slot_offset(seq) == end.slot_offset(seq + 7 * slots)


@given(slot_sizes, slot_counts, seqs)
def test_window_of_live_seqs_maps_to_distinct_slots(slot_size, slots, seq):
    """Flow control admits at most ``slots`` unacknowledged messages; all of
    them must occupy distinct slots or retransmission would clobber live
    data."""
    end = make_end(slot_size, slots)
    offsets = {end.slot_offset(s) for s in range(seq, seq + slots)}
    assert len(offsets) == slots


@given(slot_sizes, seqs)
def test_header_roundtrips_seq_and_length(slot_size, seq):
    end = make_end(slot_size, 8)
    for length in (0, 1, end.payload_capacity):
        assert decode_header(encode_header(seq, length)) == (seq, length)
        # What staging writes decodes to the same pair.
        *_, header = end.slot_image(seq, bytes(length))
        assert decode_header(header) == (seq, length)


@given(slot_sizes)
def test_payload_capacity_leaves_room_for_the_header(slot_size):
    end = make_end(slot_size, 4)
    assert end.payload_capacity == payload_capacity(slot_size)
    assert 0 < end.payload_capacity < slot_size
    # Any legal payload length fits in the header's length field.
    assert decode_header(encode_header(1, end.payload_capacity)) \
        == (1, end.payload_capacity)


@given(slot_sizes, slot_counts, seqs, bases, node_ids, node_ids)
def test_slot_put_covers_exactly_slot_seq(slot_size, slots, seq, base,
                                          src, dst):
    end = make_end(slot_size, slots, bases=base, port_id=src ^ dst,
                   src=src, dst=dst)
    index = (seq - 1) % slots
    for flags in (NotifyFlags.NONE, NotifyFlags.COMPLETER):
        wr = end.slot_put(seq, flags)
        assert wr.op is RmaOp.PUT and wr.flags == flags
        assert (wr.port, wr.dst_node) == (end.port_id, dst)
        assert wr.size == slot_size
        assert wr.src_nla == end.staging_nla.base + index * slot_size
        assert wr.dst_nla == end.ring_nla.base + index * slot_size
        assert end.staging_nla.contains(wr.src_nla, wr.size)
        assert end.ring_nla.contains(wr.dst_nla, wr.size)
        assert end.slot_key(seq) == (dst, wr.dst_nla)
    # The staged image and the ring view address the same slot, with the
    # header in its last 8 bytes.
    slot, padded, header_addr, _ = end.slot_image(seq, b"x")
    assert slot == end.staging.base + index * slot_size
    assert header_addr == slot + slot_size - 8
    assert len(padded) == 8
    ring, ring_header = end.ring_slot(seq)
    assert ring == end.ring.base + index * slot_size
    assert ring_header == ring + slot_size - 8


@given(slot_sizes, slot_counts, bases, node_ids, node_ids)
def test_credit_put_returns_the_staging_word_to_the_credit_word(
        slot_size, slots, base, src, dst):
    end = make_end(slot_size, slots, bases=base, port_id=src ^ dst,
                   src=src, dst=dst)
    wr = end.credit_put()
    assert wr.op is RmaOp.PUT and wr.flags == NotifyFlags.NONE
    assert (wr.port, wr.dst_node) == (end.port_id, src)
    assert (wr.src_nla, wr.dst_nla, wr.size) == (
        end.credit_staging_nla.base, end.credit_word_nla.base, 8)
    assert end.credit_key == (src, wr.dst_nla)


@given(slot_counts, st.integers(min_value=0, max_value=40),
       st.integers(min_value=1, max_value=400))
def test_credit_is_due_once_every_interval(slots, interval, messages):
    end = make_end(64, slots, credit_interval=interval)
    cadence = interval or max(1, slots // 2)
    returned_at = []
    for seq in range(1, messages + 1):
        end.consumed = seq
        if end.credit_due():
            returned_at.append(seq)
            end.credits_returned = end.consumed
    assert returned_at == list(range(cadence, messages + 1, cadence))


class _SpinCtx:
    """A thread context that records the credit spins it is asked for."""

    class sim:
        tracer = NullTracer()

    def __init__(self):
        self.spins = []

    def spin_until_u64(self, addr, predicate):
        self.spins.append((addr, predicate))
        return
        yield


@given(slot_counts, st.integers(min_value=1, max_value=1024))
def test_message_waits_for_credit_exactly_when_seq_exceeds_slots(slots, seq):
    end = make_end(64, slots)
    end.next_seq = seq
    ctx = _SpinCtx()
    with pytest.raises(StopIteration) as stop:
        next(gate_send(ctx, end, b"payload"))
    assert stop.value.value == seq
    assert bool(ctx.spins) == (seq > slots)
    assert end.credit_needed(seq) == max(0, seq - slots)
    if ctx.spins:
        [(addr, admits)] = ctx.spins
        assert addr == end.credit_word.base
        need = seq - slots
        assert admits(need) and admits(need + 1) and not admits(need - 1)


@given(slot_sizes, slot_counts, seqs, st.binary(max_size=64))
def test_a_landed_slot_reads_back_through_the_ring_view(slot_size, slots,
                                                        seq, body):
    """Stage a slot, copy it as the put would, and read it back with the
    receiver's model-level readers."""
    end = make_end(slot_size, slots)
    body = body[:end.payload_capacity]
    mem = Memory("t", 0, 0x1000000, MemorySpace.GPU_DRAM)
    slot, padded, header_addr, header = end.slot_image(seq, body)
    mem.write(slot, padded)
    mem.write_u64(header_addr, header)
    wr = end.slot_put(seq)
    ring = end.ring.base + (wr.dst_nla - end.ring_nla.base)
    mem.write(ring, mem.read(end.staging.base
                             + (wr.src_nla - end.staging_nla.base),
                             slot_size))
    assert end.read_slot(mem, seq) == (seq, body)
    assert end.read_slot(mem, seq + slots) == (seq, None)
    assert end.landed_seq(mem, wr.dst_nla) == seq
