"""Address ranges, address spaces, and the per-node physical address map.

Each simulated node has one *physical* address map that routes accesses from
any agent (CPU, GPU L2 front-end, NIC DMA engine) to a target: a RAM-backed
:class:`~repro.memory.region.Memory` or an :class:`~repro.memory.mmio.MmioWindow`.
The conventional layout mirrors a real PCIe system:

* ``0x0000_0000_0000`` — host DRAM
* ``0x2000_0000_0000`` — GPU device memory (exposed via PCIe BAR1 for
  GPUDirect RDMA)
* ``0x4000_0000_0000`` — device MMIO (NIC BARs, doorbells)
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from ..errors import AddressError


class MemorySpace(enum.Enum):
    """Which physical resource a given address resolves to."""

    HOST_DRAM = "host_dram"
    GPU_DRAM = "gpu_dram"
    MMIO = "mmio"


# Conventional base addresses of the three windows in a node's physical map.
HOST_DRAM_BASE = 0x0000_0000_0000
GPU_DRAM_BASE = 0x2000_0000_0000
MMIO_BASE = 0x4000_0000_0000


@dataclass(frozen=True)
class AddressRange:
    """A half-open interval [base, base+size) of physical addresses."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base < 0:
            raise AddressError(f"negative base address {self.base:#x}")
        if self.size <= 0:
            raise AddressError(f"non-positive range size {self.size}")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, length: int = 1) -> bool:
        return self.base <= addr and addr + length <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.base < other.end and other.base < self.end

    def offset_of(self, addr: int) -> int:
        if not self.contains(addr):
            raise AddressError(f"{addr:#x} outside {self}")
        return addr - self.base

    def split(self, chunk: int) -> Iterator["AddressRange"]:
        """Yield consecutive sub-ranges of at most ``chunk`` bytes."""
        if chunk <= 0:
            raise AddressError(f"non-positive chunk {chunk}")
        addr = self.base
        while addr < self.end:
            step = min(chunk, self.end - addr)
            yield AddressRange(addr, step)
            addr += step

    def __str__(self) -> str:
        return f"[{self.base:#x}, {self.end:#x})"


class RangeIndex:
    """Non-overlapping address ranges in base order, each with a value,
    looked up by bisection.

    :meth:`find` and :meth:`holding` give the answers a front-to-back scan
    of the ranges would give.  Ends rise with bases, so the first range
    whose end reaches ``addr + length`` is the only one that can hold the
    access, even for ``length <= 0``.
    """

    def __init__(self) -> None:
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._entries: List[Tuple[AddressRange, Any]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def overlap(self, rng: AddressRange) -> Optional[AddressRange]:
        """The lowest range that overlaps ``rng``, or None.  Only the
        neighbours of ``rng.base`` can."""
        i = bisect_right(self._bases, rng.base)
        for existing, _ in self._entries[max(i - 1, 0):i + 1]:
            if existing.overlaps(rng):
                return existing
        return None

    def insert(self, rng: AddressRange, value: Any) -> None:
        """Add ``rng``, which must not overlap a range already held."""
        i = bisect_right(self._bases, rng.base)
        self._bases.insert(i, rng.base)
        self._ends.insert(i, rng.end)
        self._entries.insert(i, (rng, value))

    def find(self, addr: int, length: int) -> Optional[Tuple[AddressRange, Any]]:
        """The ``(range, value)`` whose range holds ``[addr, addr+length)``
        (``range.contains(addr, length)``), or None."""
        i = bisect_left(self._ends, addr + length)
        if i < len(self._bases) and self._bases[i] <= addr:
            return self._entries[i]
        return None

    def holding(self, addr: int) -> Optional[AddressRange]:
        """The range that holds the byte at ``addr``, or None.  After a
        :meth:`find` miss, a range here is one the access straddles."""
        i = bisect_right(self._bases, addr) - 1
        if i >= 0 and addr < self._ends[i]:
            return self._entries[i][0]
        return None


class AddressMap:
    """Routes physical addresses to mapped targets.

    Targets are any object exposing a ``range`` attribute of type
    :class:`AddressRange` and a ``space`` attribute of type
    :class:`MemorySpace`.  Lookups reject accesses that straddle a mapping
    boundary, as real interconnects would.
    """

    def __init__(self) -> None:
        self._index = RangeIndex()

    def add(self, target: object) -> None:
        rng: AddressRange = getattr(target, "range")
        existing = self._index.overlap(rng)
        if existing is not None:
            raise AddressError(f"mapping {rng} overlaps existing {existing}")
        self._index.insert(rng, target)

    def resolve(self, addr: int, length: int = 1) -> Tuple[object, int]:
        """Return ``(target, offset_within_target)`` for an access."""
        hit = self._index.find(addr, length)
        if hit is not None:
            return hit[1], addr - hit[0].base
        rng = self._index.holding(addr)
        if rng is not None:
            raise AddressError(
                f"access [{addr:#x}, {addr + length:#x}) straddles mapping {rng}"
            )
        raise AddressError(f"unmapped physical address {addr:#x} (+{length})")

    def space_of(self, addr: int) -> MemorySpace:
        target, _ = self.resolve(addr)
        return getattr(target, "space")
