"""Unit + property tests for ByteStore."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
