"""Physical units and conversion helpers.

The simulator keeps all times as ``float`` **seconds** and all sizes as
``int`` **bytes**.  These constants make call sites read like the paper
("4 us", "256 KiB") instead of raw exponents.
"""

from __future__ import annotations

# --- time ------------------------------------------------------------------
S: float = 1.0
MS: float = 1e-3
US: float = 1e-6
NS: float = 1e-9
PS: float = 1e-12

# --- sizes -----------------------------------------------------------------
BYTE: int = 1
KIB: int = 1024
MIB: int = 1024 * 1024
GIB: int = 1024 * 1024 * 1024

# --- rates -----------------------------------------------------------------
GB_PER_S: float = 1e9  # bytes/second for a "1 GB/s" link (decimal, as vendors quote)
MB_PER_S: float = 1e6


def bytes_per_second(amount: int, seconds: float) -> float:
    """Average rate in bytes/second for ``amount`` bytes over ``seconds``."""
    if seconds <= 0.0:
        raise ValueError(f"non-positive duration: {seconds!r}")
    return amount / seconds


def mb_per_s(amount: int, seconds: float) -> float:
    """Average rate in decimal megabytes/second (the unit used in Fig. 1b/4b)."""
    return bytes_per_second(amount, seconds) / 1e6


def cycles(n: int, frequency_hz: float) -> float:
    """Duration of ``n`` clock cycles at ``frequency_hz``."""
    if frequency_hz <= 0.0:
        raise ValueError(f"non-positive frequency: {frequency_hz!r}")
    return n / frequency_hz


def format_size(num_bytes: int) -> str:
    """Human-readable size label, matching the paper's axis ticks."""
    if num_bytes >= GIB and num_bytes % GIB == 0:
        return f"{num_bytes // GIB}GiB"
    if num_bytes >= MIB and num_bytes % MIB == 0:
        return f"{num_bytes // MIB}MiB"
    if num_bytes >= KIB and num_bytes % KIB == 0:
        return f"{num_bytes // KIB}KiB"
    return f"{num_bytes}B"


def format_time(seconds: float) -> str:
    """Human-readable duration with an auto-selected unit."""
    if seconds < 0:
        return "-" + format_time(-seconds)
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= MS:
        return f"{seconds / MS:.3f}ms"
    if seconds >= US:
        return f"{seconds / US:.3f}us"
    return f"{seconds / NS:.1f}ns"
