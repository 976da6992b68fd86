"""Unit + property tests for Memory and Allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AllocationError
from repro.memory import Allocator, AddressRange, Memory, MemorySpace


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


def test_free_then_realloc_reuses_space():
    alloc = Allocator(make_mem(size=4096, base=0), alignment=16)
    r = alloc.alloc(4096)
    alloc.free(r)
    r2 = alloc.alloc(4096)
    assert r2.base == r.base


def test_double_free_rejected():
    alloc = Allocator(make_mem())
    r = alloc.alloc(64)
    alloc.free(r)
    with pytest.raises(AllocationError):
        alloc.free(r)


def test_foreign_free_rejected():
    alloc = Allocator(make_mem())
    with pytest.raises(AllocationError):
        alloc.free(AddressRange(0x1000, 64))


def test_free_size_mismatch_rejected():
    alloc = Allocator(make_mem())
    r = alloc.alloc(64)
    with pytest.raises(AllocationError):
        alloc.free(AddressRange(r.base, 32))


def test_nonpositive_alloc_rejected():
    alloc = Allocator(make_mem())
    with pytest.raises(AllocationError):
        alloc.alloc(0)


def test_non_power_of_two_alignment_rejected():
    with pytest.raises(AllocationError):
        Allocator(make_mem(), alignment=100)


def test_coalescing_allows_big_realloc():
    alloc = Allocator(make_mem(size=4096, base=0), alignment=16)
    parts = [alloc.alloc(1024) for _ in range(4)]
    for p in parts:
        alloc.free(p)
    big = alloc.alloc(4096)  # only possible if free blocks coalesced
    assert big.size == 4096


@given(st.lists(st.integers(min_value=1, max_value=2048), min_size=1, max_size=30))
def test_property_allocations_never_overlap(sizes):
    """No two live allocations overlap, and accounting is conserved."""
    alloc = Allocator(make_mem(size=0x100000, base=0), alignment=64)
    live = []
    for i, size in enumerate(sizes):
        r = alloc.alloc(size)
        for other in live:
            assert not r.overlaps(other)
        live.append(r)
        if i % 3 == 2:  # free every third allocation to churn the free list
            alloc.free(live.pop(0))
    assert alloc.bytes_free == alloc.region.size - sum(r.size for r in live)


@given(st.lists(st.integers(min_value=1, max_value=512), min_size=1, max_size=20))
def test_property_free_all_restores_capacity(sizes):
    mem = make_mem(size=0x40000, base=0)
    alloc = Allocator(mem, alignment=64)
    ranges = [alloc.alloc(s) for s in sizes]
    for r in ranges:
        alloc.free(r)
    assert alloc.bytes_free == mem.range.size
