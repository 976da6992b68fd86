"""Unit + property tests for ByteStore."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AddressError
from repro.memory import ByteStore


def test_starts_zeroed():
    store = ByteStore(64)
    assert store.read(0, 64) == bytes(64)


def test_write_read_roundtrip():
    store = ByteStore(32)
    store.write(4, b"hello")
    assert store.read(4, 5) == b"hello"
    assert store.read(0, 4) == bytes(4)


def test_out_of_bounds_read_rejected():
    store = ByteStore(16)
    with pytest.raises(AddressError):
        store.read(10, 8)


def test_out_of_bounds_write_rejected():
    store = ByteStore(16)
    with pytest.raises(AddressError):
        store.write(15, b"toolong")


def test_negative_offset_rejected():
    store = ByteStore(16)
    with pytest.raises(AddressError):
        store.read(-1, 2)


def test_zero_size_store_rejected():
    with pytest.raises(AddressError):
        ByteStore(0)


def test_freed_store_unmaps_at_once():
    """The store's view is the map's only holder: dropping the store frees
    the map (and so unmaps its pages) without waiting for the collector."""
    store = ByteStore(4096)
    store.write(0, b"x")
    pages = weakref.ref(store._view.obj)
    del store
    assert pages() is None


def test_u32_little_endian():
    store = ByteStore(8)
    store.write_u32(0, 0x01020304)
    assert store.read(0, 4) == bytes([0x04, 0x03, 0x02, 0x01])
    assert store.read_u32(0) == 0x01020304


def test_u64_roundtrip_and_truncation():
    store = ByteStore(16)
    store.write_u64(8, 0x1_FFFF_FFFF_FFFF_FFFF)  # truncates to 64 bits
    assert store.read_u64(8) == 0xFFFF_FFFF_FFFF_FFFF


def test_fill():
    store = ByteStore(16)
    store.fill(4, 8, 0xAB)
    assert store.read(4, 8) == bytes([0xAB] * 8)
    assert store.read(0, 4) == bytes(4)


def test_copy_between_stores():
    a = ByteStore(32)
    b = ByteStore(32)
    a.write(0, b"payload!")
    ByteStore.copy(a, 0, b, 8, 8)
    assert b.read(8, 8) == b"payload!"


def test_write_takes_any_bytes_like():
    store = ByteStore(16)
    store.write(0, bytearray(b"ab"))
    store.write(2, memoryview(b"xcdx")[1:3])
    store.write(4, np.frombuffer(b"ef", dtype=np.uint8))
    assert store.read(0, 6) == b"abcdef"


def test_pinned_range_is_copied_out_before_a_write():
    """A snapshot keeps the bytes of its pin turn; only an overlapping
    mutator copies it out, and then it holds no pin."""
    store = ByteStore(32)
    store.write(0, bytes(range(32)))
    snap = store.pin(8, 8)
    store.write_u32(0, 0xFFFFFFFF)          # beside the range: still pinned
    assert snap.data is None and store._pins == [snap]
    store.fill(12, 2, 0xAA)
    assert snap.read(0, 8) == bytes(range(8, 16))
    assert store._pins == []
    store.unpin(snap)                       # already detached: a no-op


@given(
    size=st.integers(min_value=1, max_value=4096),
    data=st.binary(min_size=1, max_size=256),
    offset=st.integers(min_value=0, max_value=4096),
)
def test_property_roundtrip_or_bounds_error(size, data, offset):
    """Any in-bounds write reads back exactly; out-of-bounds raises."""
    store = ByteStore(size)
    if offset + len(data) <= size:
        store.write(offset, data)
        assert store.read(offset, len(data)) == data
    else:
        with pytest.raises(AddressError):
            store.write(offset, data)


@given(value=st.integers(min_value=0, max_value=2**64 - 1))
def test_property_u64_roundtrip(value):
    store = ByteStore(8)
    store.write_u64(0, value)
    assert store.read_u64(0) == value


@given(
    st.lists(
        st.tuples(st.integers(0, 56), st.integers(0, 2**64 - 1)),
        min_size=1, max_size=20,
    )
)
def test_property_last_write_wins(writes):
    """Sequential u64 writes: reading any offset reflects the latest
    overlapping write, modeled against a reference bytearray."""
    store = ByteStore(64)
    ref = bytearray(64)
    for off, val in writes:
        store.write_u64(off, val)
        ref[off:off + 8] = val.to_bytes(8, "little")
    assert store.read(0, 64) == bytes(ref)


# -- the store against a bytearray reference ---------------------------------

SIZES = (96, 64)


def _range(data, size, min_len=0):
    """Draw an in-bounds ``(offset, length)`` of a ``size``-byte store."""
    offset = data.draw(st.integers(0, size - min_len))
    return offset, data.draw(st.integers(min_len, size - offset))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_operations_match_a_bytearray(data):
    """Random operation sequences on two stores read and end exactly as on
    two bytearrays; a snapshot pinned before any mutator keeps its bytes."""
    stores = [ByteStore(size) for size in SIZES]
    refs = [bytearray(size) for size in SIZES]
    snaps = []          # (snapshot, the bytes it must keep)
    ops = data.draw(st.lists(st.sampled_from(
        ("write", "write_u32", "write_u64", "read", "read_u32", "read_u64",
         "fill", "copy", "pin")), max_size=40))
    for op in ops:
        i = data.draw(st.integers(0, 1))
        store, ref, size = stores[i], refs[i], SIZES[i]
        if op == "write":
            offset, length = _range(data, size)
            raw = data.draw(st.binary(min_size=length, max_size=length))
            wrap = data.draw(st.sampled_from((bytes, bytearray, memoryview)))
            store.write(offset, wrap(raw))
            ref[offset:offset + length] = raw
        elif op in ("write_u32", "write_u64"):
            width = 4 if op == "write_u32" else 8
            offset = data.draw(st.integers(0, size - width))
            value = data.draw(st.integers(-2**70, 2**70))
            getattr(store, op)(offset, value)
            ref[offset:offset + width] = (
                (value & ((1 << 8 * width) - 1)).to_bytes(width, "little"))
        elif op == "read":
            offset, length = _range(data, size)
            assert store.read(offset, length) == bytes(ref[offset:offset + length])
        elif op in ("read_u32", "read_u64"):
            width = 4 if op == "read_u32" else 8
            offset = data.draw(st.integers(0, size - width))
            assert getattr(store, op)(offset) == int.from_bytes(
                ref[offset:offset + width], "little")
        elif op == "fill":
            offset, length = _range(data, size)
            value = data.draw(st.integers(0, 255))
            store.fill(offset, length, value)
            ref[offset:offset + length] = bytes([value]) * length
        elif op == "copy":
            # Between the stores, or within one over overlapping ranges.
            j = data.draw(st.integers(0, 1))
            length = data.draw(st.integers(0, min(size, SIZES[j])))
            src_off = data.draw(st.integers(0, size - length))
            dst_off = data.draw(st.integers(0, SIZES[j] - length))
            ByteStore.copy(store, src_off, stores[j], dst_off, length)
            refs[j][dst_off:dst_off + length] = ref[src_off:src_off + length]
        else:
            offset, length = _range(data, size, min_len=1)
            snaps.append((store.pin(offset, length),
                          bytes(ref[offset:offset + length])))
        for snap, kept in snaps:
            assert snap.read(0, len(kept)) == kept
    for store, ref in zip(stores, refs):
        assert store.read(0, store.size) == bytes(ref)


# -- every accessor keeps its bounds check ------------------------------------

def _accessors(offset, length):
    """Each ranged accessor of a store at ``offset``, ``length`` bytes."""
    other = ByteStore(64)
    return {
        "read": lambda s: s.read(offset, length),
        "write": lambda s: s.write(offset, bytes(length)),
        "fill": lambda s: s.fill(offset, length, 0xAB),
        "pin": lambda s: s.pin(offset, length),
        "copy-from": lambda s: ByteStore.copy(s, offset, other, 0, length),
        "copy-to": lambda s: ByteStore.copy(other, 0, s, offset, length),
    }


BAD_RANGES = (
    (-1, 2, "access [-0x1, 0x1) outside store of 0x10 bytes"),
    (4, -1, "access [0x4, 0x3) outside store of 0x10 bytes"),
    (10, 7, "access [0xa, 0x11) outside store of 0x10 bytes"),
)


# A write's length is its data's, and a copy checks its source's range
# first, so neither meets a negative length at this store.
@pytest.mark.parametrize("name,offset,length,text", [
    (name, *bad) for name in ("read", "write", "fill", "pin", "copy-from",
                              "copy-to") for bad in BAD_RANGES
    if not (bad[1] < 0 and name in ("write", "copy-to"))])
def test_ranged_access_out_of_bounds_raises_and_changes_nothing(
        name, offset, length, text):
    store = ByteStore(16)
    store.write(0, bytes(range(16)))
    with pytest.raises(AddressError) as err:
        _accessors(offset, length)[name](store)
    assert str(err.value) == text
    assert store.read(0, 16) == bytes(range(16))
    assert store._pins == []


@pytest.mark.parametrize("offset", [-1, -8, 13])
@pytest.mark.parametrize("name,width", [("read_u32", 4), ("write_u32", 4),
                                        ("read_u64", 8), ("write_u64", 8)])
def test_typed_access_out_of_bounds_raises_and_changes_nothing(name, width,
                                                                offset):
    store = ByteStore(16)
    store.write(0, bytes(range(16)))
    args = (offset,) if name.startswith("read") else (offset, 2**64 - 1)
    with pytest.raises(AddressError) as err:
        getattr(store, name)(*args)
    assert str(err.value) == (f"access [{offset:#x}, {offset + width:#x}) "
                              f"outside store of 0x10 bytes")
    assert store.read(0, 16) == bytes(range(16))
