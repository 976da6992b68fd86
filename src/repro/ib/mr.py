"""Memory regions: registration and key validation (§IV-A).

Unlike EXTOLL's NLA indirection, InfiniBand addresses remote memory by the
*virtual* address plus a key pair: the local key (lkey) authorizes local
DMA, the remote key (rkey) authorizes incoming RDMA.  The HCA validates
every access against the registered range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import RegistrationError
from ..memory import AddressRange


@dataclass(frozen=True)
class MemoryRegion:
    addr: AddressRange
    lkey: int
    rkey: int


class MrTable:
    """Per-HCA registration table."""

    _KEY_SEED = 0xC0DE

    def __init__(self, name: str = "mr-table") -> None:
        self.name = name
        self._by_lkey: Dict[int, MemoryRegion] = {}
        self._by_rkey: Dict[int, MemoryRegion] = {}
        self._next_key = self._KEY_SEED

    def register(self, rng: AddressRange) -> MemoryRegion:
        if rng.size <= 0:
            raise RegistrationError(f"cannot register empty range {rng}")
        lkey = self._next_key
        rkey = self._next_key + 1
        self._next_key += 2
        mr = MemoryRegion(rng, lkey, rkey)
        self._by_lkey[lkey] = mr
        self._by_rkey[rkey] = mr
        return mr

    def validate_local(self, lkey: int, addr: int, length: int) -> None:
        mr = self._by_lkey.get(lkey)
        if mr is None:
            raise RegistrationError(f"{self.name}: bad lkey {lkey:#x}")
        if not mr.addr.contains(addr, length):
            raise RegistrationError(
                f"{self.name}: local access {addr:#x}+{length} outside {mr.addr}")

    def validate_remote(self, rkey: int, addr: int, length: int) -> None:
        mr = self._by_rkey.get(rkey)
        if mr is None:
            raise RegistrationError(f"{self.name}: bad rkey {rkey:#x}")
        if not mr.addr.contains(addr, length):
            raise RegistrationError(
                f"{self.name}: remote access {addr:#x}+{length} outside {mr.addr}")
