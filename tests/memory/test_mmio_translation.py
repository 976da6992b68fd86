"""Unit + property tests for MMIO windows and translation tables."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import AddressError, TranslationError
from repro.memory import AddressRange, MmioWindow, TranslationTable


# --- MmioWindow -------------------------------------------------------------

def test_mmio_write_handler_invoked_with_relative_offset():
    win = MmioWindow("bar", 0x4000, 0x100)
    calls = []
    win.on_write(0x10, 0x20, lambda off, data: calls.append((off, data)))
    win.write(0x18, b"\x01\x02")
    assert calls == [(0x8, b"\x01\x02")]


def test_mmio_unhandled_write_lands_in_store():
    win = MmioWindow("bar", 0, 0x100)
    win.write(0x40, b"scratch")
    assert win.read(0x40, 7) == b"scratch"


def test_mmio_handler_overlap_rejected():
    win = MmioWindow("bar", 0, 0x100)
    win.on_write(0, 0x10, lambda o, d: None)
    with pytest.raises(AddressError):
        win.on_write(0x8, 0x10, lambda o, d: None)


def test_mmio_handled_write_still_updates_store():
    win = MmioWindow("bar", 0, 0x100)
    win.on_write(0, 0x10, lambda o, d: None)
    win.write(0, b"\x42")
    assert win.read(0x0, 1) == b"\x42"


# --- TranslationTable ----------------------------------------------------------

def test_translate_basic():
    tt = TranslationTable("atu")
    tt.map(AddressRange(0x10000, 0x1000), physical_base=0x2000_0000)
    assert tt.translate(0x10010) == 0x2000_0010
    assert tt.translate(0x10FFF) == 0x2000_0FFF


def test_translate_fault():
    tt = TranslationTable("atu")
    with pytest.raises(TranslationError):
        tt.translate(0x42)


def test_translate_straddle_rejected():
    tt = TranslationTable("atu")
    tt.map(AddressRange(0, 0x1000), physical_base=0)
    with pytest.raises(TranslationError):
        tt.translate(0xFF8, 16)


def test_overlapping_mapping_rejected():
    tt = TranslationTable("atu")
    tt.map(AddressRange(0, 0x1000), physical_base=0)
    with pytest.raises(TranslationError):
        tt.map(AddressRange(0x800, 0x1000), physical_base=0x8000)


def test_try_translate_returns_none_on_fault():
    tt = TranslationTable("atu")
    assert tt.try_translate(0x10) is None


@given(
    base=st.integers(min_value=0, max_value=2**40),
    size=st.integers(min_value=1, max_value=2**20),
    phys=st.integers(min_value=0, max_value=2**40),
    probe=st.integers(min_value=0, max_value=2**20 - 1),
)
def test_property_translation_preserves_offsets(base, size, phys, probe):
    """translate(v) - phys == v - base for every v in the mapping."""
    tt = TranslationTable()
    tt.map(AddressRange(base, size), physical_base=phys)
    v = base + (probe % size)
    assert tt.translate(v) - phys == v - base


def scan_lookup(tt, ranges, vaddr, length):
    """The front-to-back scan ``TranslationTable.lookup`` replaced, over
    the mapped virtual ``ranges`` in base order; kept as the reference
    its bisection must match."""
    for rng in ranges:
        if rng.contains(vaddr, length):
            return rng
        if rng.contains(vaddr) and not rng.contains(vaddr, length):
            raise TranslationError(
                f"{tt.name}: access {vaddr:#x}+{length} straddles {rng}")
    raise TranslationError(f"{tt.name}: translation fault at {vaddr:#x}")


def outcome(fn, *args):
    try:
        return fn(*args)
    except TranslationError as exc:
        return str(exc)


#: Mappings as (gap before, size) pairs: a gap of 0 makes two mappings
#: adjacent, where a zero-length lookup at the boundary resolves left.
LAYOUTS = st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                             st.integers(min_value=1, max_value=6)),
                   min_size=1, max_size=8)


@given(LAYOUTS, st.randoms(use_true_random=False),
       st.lists(st.tuples(st.integers(min_value=0, max_value=80),
                          st.integers(min_value=-2, max_value=12)),
                min_size=1, max_size=40))
def test_property_lookup_matches_linear_scan(layout, rnd, probes):
    ranges, addr = [], 0
    for gap, size in layout:
        ranges.append(AddressRange(addr + gap, size))
        addr += gap + size
    rnd.shuffle(ranges)             # map() keeps base order itself
    tt = TranslationTable("tt")
    for i, rng in enumerate(ranges):
        tt.map(rng, physical_base=0x1000 * i)
    ranges.sort(key=lambda r: r.base)
    for vaddr, length in probes:
        assert outcome(lambda: tt.lookup(vaddr, length).virtual) == \
            outcome(scan_lookup, tt, ranges, vaddr, length)
    # An overlapping map names the lowest mapping it overlaps.
    for vaddr, length in probes:
        if length < 1:
            continue
        new = AddressRange(vaddr, length)
        hit = next((rng for rng in ranges if rng.overlaps(new)), None)
        if hit is None:
            continue
        with pytest.raises(TranslationError) as err:
            tt.map(new, physical_base=0)
        assert str(err.value) == f"tt: new mapping {new} overlaps {hit}"
