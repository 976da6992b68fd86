"""Unit + property tests for Memory and Allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AllocationError
from repro.memory import Allocator, Memory, MemorySpace


def make_mem(size=0x10000, base=0x1000):
    return Memory("m", base, size, MemorySpace.HOST_DRAM)


def test_memory_physical_addressing():
    mem = make_mem()
    mem.write_u64(0x1008, 0xDEADBEEF)
    assert mem.read_u64(0x1008) == 0xDEADBEEF
    assert mem.read(0x1008, 4) == bytes([0xEF, 0xBE, 0xAD, 0xDE])


def test_alloc_returns_aligned_ranges():
    alloc = Allocator(make_mem(), alignment=256)
    r1 = alloc.alloc(100)
    r2 = alloc.alloc(100)
    assert r1.base % 256 == 0
    assert r2.base % 256 == 0
    assert not r1.overlaps(r2)


def test_alloc_exhaustion():
    alloc = Allocator(make_mem(size=1024, base=0), alignment=16)
    alloc.alloc(1024)
    with pytest.raises(AllocationError):
        alloc.alloc(1)


def test_nonpositive_alloc_rejected():
    alloc = Allocator(make_mem())
    with pytest.raises(AllocationError):
        alloc.alloc(0)


def test_non_power_of_two_alignment_rejected():
    with pytest.raises(AllocationError):
        Allocator(make_mem(), alignment=100)


@given(st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=30))
def test_property_allocations_never_overlap(sizes):
    """No two allocations overlap, and accounting is conserved."""
    alloc = Allocator(make_mem(size=0x100000, base=0), alignment=64)
    live = []
    for size in sizes:
        r = alloc.alloc(size)
        assert r.base % 64 == 0
        for other in live:
            assert not r.overlaps(other)
        live.append(r)
    assert alloc.bytes_free == alloc.region.size - sum(r.size for r in live)
