"""Unit tests for the units/conversion helpers."""

import pytest

from repro.units import (
    GIB,
    KIB,
    MIB,
    bytes_per_second,
    cycles,
    format_size,
    format_time,
    mb_per_s,
)


def test_size_constants():
    assert KIB == 1024
    assert MIB == 1024 ** 2
    assert GIB == 1024 ** 3


def test_bytes_per_second():
    assert bytes_per_second(1000, 0.001) == pytest.approx(1e6)
    with pytest.raises(ValueError):
        bytes_per_second(1, 0.0)


def test_mb_per_s_is_decimal_megabytes():
    assert mb_per_s(800_000_000, 1.0) == pytest.approx(800.0)


def test_cycles():
    assert cycles(157, 157e6) == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        cycles(1, 0.0)


@pytest.mark.parametrize("nbytes,label", [
    (4, "4B"), (1024, "1KiB"), (256 * KIB, "256KiB"),
    (4 * MIB, "4MiB"), (2 * GIB, "2GiB"), (1500, "1500B"),
])
def test_format_size(nbytes, label):
    assert format_size(nbytes) == label


@pytest.mark.parametrize("seconds,contains", [
    (2.5, "2.500s"), (3e-3, "3.000ms"), (4.2e-6, "4.200us"), (150e-9, "150.0ns"),
])
def test_format_time(seconds, contains):
    assert format_time(seconds) == contains


def test_format_time_negative():
    assert format_time(-1e-6) == "-1.000us"
