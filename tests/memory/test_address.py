"""Unit tests for AddressRange and AddressMap."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError
from repro.memory import AddressMap, AddressRange, Memory, MemorySpace


def test_range_contains():
    r = AddressRange(0x1000, 0x100)
    assert r.contains(0x1000)
    assert r.contains(0x10FF)
    assert not r.contains(0x1100)
    assert r.contains(0x1080, 0x80)
    assert not r.contains(0x1080, 0x81)


def test_range_end_and_offset():
    r = AddressRange(0x1000, 0x100)
    assert r.end == 0x1100
    assert r.offset_of(0x1010) == 0x10
    with pytest.raises(AddressError):
        r.offset_of(0x2000)


def test_range_overlap():
    a = AddressRange(0, 16)
    b = AddressRange(15, 16)
    c = AddressRange(16, 16)
    assert a.overlaps(b)
    assert not a.overlaps(c)
    assert b.overlaps(c)


def test_range_split():
    r = AddressRange(0, 10)
    parts = list(r.split(4))
    assert [(p.base, p.size) for p in parts] == [(0, 4), (4, 4), (8, 2)]


def test_range_split_invalid_chunk():
    with pytest.raises(AddressError):
        list(AddressRange(0, 10).split(0))


def test_bad_ranges_rejected():
    with pytest.raises(AddressError):
        AddressRange(-1, 10)
    with pytest.raises(AddressError):
        AddressRange(0, 0)


def test_map_resolves_to_target_and_offset():
    amap = AddressMap()
    mem = Memory("host", 0x1000, 0x1000, MemorySpace.HOST_DRAM)
    amap.add(mem)
    target, offset = amap.resolve(0x1800, 8)
    assert target is mem
    assert offset == 0x800


def test_map_rejects_overlapping_targets():
    amap = AddressMap()
    amap.add(Memory("a", 0, 0x100, MemorySpace.HOST_DRAM))
    with pytest.raises(AddressError):
        amap.add(Memory("b", 0x80, 0x100, MemorySpace.GPU_DRAM))


def test_map_unmapped_address():
    amap = AddressMap()
    with pytest.raises(AddressError):
        amap.resolve(0x42)


def test_map_straddling_access_rejected():
    amap = AddressMap()
    amap.add(Memory("a", 0, 0x100, MemorySpace.HOST_DRAM))
    amap.add(Memory("b", 0x100, 0x100, MemorySpace.GPU_DRAM))
    with pytest.raises(AddressError):
        amap.resolve(0xF8, 16)


def test_space_of():
    amap = AddressMap()
    amap.add(Memory("host", 0, 0x100, MemorySpace.HOST_DRAM))
    amap.add(Memory("gpu", 0x100, 0x100, MemorySpace.GPU_DRAM))
    assert amap.space_of(0x10) is MemorySpace.HOST_DRAM
    assert amap.space_of(0x110) is MemorySpace.GPU_DRAM


def scan_resolve(targets, addr, length):
    """The front-to-back scan ``AddressMap.resolve`` replaced; kept as the
    reference its bisection must match."""
    for target in sorted(targets, key=lambda t: t.range.base):
        rng = target.range
        if rng.contains(addr, length):
            return target, addr - rng.base
        if rng.contains(addr) and not rng.contains(addr, length):
            raise AddressError(
                f"access [{addr:#x}, {addr + length:#x}) straddles mapping {rng}")
    raise AddressError(f"unmapped physical address {addr:#x} (+{length})")


def outcome(fn, *args):
    try:
        return fn(*args)
    except AddressError as exc:
        return str(exc)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                          st.integers(min_value=1, max_value=6)),
                min_size=1, max_size=8),
       st.lists(st.tuples(st.integers(min_value=0, max_value=80),
                          st.integers(min_value=-2, max_value=12)),
                min_size=1, max_size=40))
def test_property_resolve_matches_linear_scan(layout, probes):
    amap, targets, addr = AddressMap(), [], 0
    for i, (gap, size) in enumerate(reversed(layout)):
        targets.append(Memory(f"m{i}", 100 - addr - gap - size, size,
                              MemorySpace.HOST_DRAM))
        amap.add(targets[-1])
        addr += gap + size
    for addr, length in probes:
        assert outcome(amap.resolve, addr, length) == \
            outcome(scan_resolve, targets, addr, length)
