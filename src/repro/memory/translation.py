"""Generic page-granular address translation.

Used twice in the library:

* the EXTOLL ATU translates Network Logical Addresses (NLAs) to node-physical
  addresses (§III-A),
* the GPU's UVA layer translates unified virtual addresses to node-physical
  addresses (device memory, host mappings, and the MMIO mappings that the
  paper's NVIDIA-driver patch enables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import TranslationError
from .address import AddressRange, RangeIndex


@dataclass(frozen=True)
class Mapping:
    """One contiguous translation entry: virtual → physical."""

    virtual: AddressRange
    physical_base: int


class TranslationTable:
    """An ordered collection of non-overlapping virtual mappings."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._index = RangeIndex()

    def map(self, virtual: AddressRange, physical_base: int) -> Mapping:
        existing = self._index.overlap(virtual)
        if existing is not None:
            raise TranslationError(
                f"{self.name}: new mapping {virtual} overlaps {existing}"
            )
        mapping = Mapping(virtual, physical_base)
        self._index.insert(virtual, mapping)
        return mapping

    def lookup(self, vaddr: int, length: int = 1) -> Mapping:
        hit = self._index.find(vaddr, length)
        if hit is not None:
            return hit[1]
        straddled = self._index.holding(vaddr)
        if straddled is not None:
            raise TranslationError(
                f"{self.name}: access {vaddr:#x}+{length} straddles {straddled}"
            )
        raise TranslationError(f"{self.name}: translation fault at {vaddr:#x}")

    def translate(self, vaddr: int, length: int = 1) -> int:
        m = self.lookup(vaddr, length)
        # lookup() found the mapping that holds the access.
        return m.physical_base + (vaddr - m.virtual.base)

    def try_translate(self, vaddr: int, length: int = 1) -> Optional[int]:
        try:
            return self.translate(vaddr, length)
        except TranslationError:
            return None

    def __len__(self) -> int:
        return len(self._index)
