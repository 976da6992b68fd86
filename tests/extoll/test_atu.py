"""Unit + property tests for the ATU / NLA translation."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import RegistrationError, TranslationError
from repro.extoll import Atu, NLA_PAGE
from repro.memory import AddressRange


def test_register_returns_nla_window_of_same_size():
    atu = Atu()
    nla = atu.register(AddressRange(0x1000, 8192))
    assert nla.size == 8192


def test_translate_roundtrip():
    atu = Atu()
    phys = AddressRange(0x20_0000, 4096)
    nla = atu.register(phys)
    assert atu.translate(nla.base) == phys.base
    assert atu.translate(nla.base + 100) == phys.base + 100
    assert atu.translate(nla.base + 4095) == phys.base + 4095


def test_unregistered_nla_faults():
    atu = Atu()
    with pytest.raises(TranslationError):
        atu.translate(0x6000_0000_0000)


def test_distinct_registrations_get_distinct_windows():
    atu = Atu()
    a = atu.register(AddressRange(0x1000, 4096))
    b = atu.register(AddressRange(0x9000, 4096))
    assert not a.overlaps(b)


def test_guard_page_between_windows():
    """Overrunning one registration never lands in the next."""
    atu = Atu()
    a = atu.register(AddressRange(0x1000, 4096))
    atu.register(AddressRange(0x9000, 4096))
    with pytest.raises(TranslationError):
        atu.translate(a.base + 4096)


def test_sub_page_registration_bounds_to_true_size():
    atu = Atu()
    nla = atu.register(AddressRange(0x1000, 100))
    assert atu.translate(nla.base + 99) == 0x1000 + 99
    with pytest.raises(TranslationError):
        atu.translate(nla.base + 100)


def test_straddling_translation_rejected():
    atu = Atu()
    nla = atu.register(AddressRange(0x1000, 4096))
    with pytest.raises(TranslationError):
        atu.translate(nla.base + 4090, 16)


@given(st.lists(st.tuples(st.integers(0, 2**30), st.integers(1, 64 * 1024)),
                min_size=1, max_size=10))
def test_property_translations_preserve_offsets(regs):
    atu = Atu()
    base = 0
    for _, size in regs:
        phys = AddressRange(base + 1, size)  # non-overlapping physical ranges
        base = phys.end + NLA_PAGE
        nla = atu.register(phys)
        mid = nla.base + (size // 2)
        assert atu.translate(mid) - phys.base == mid - nla.base
