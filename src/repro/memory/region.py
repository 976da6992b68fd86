"""RAM-backed memories and a first-fit allocator.

A :class:`Memory` is a contiguous physical window (host DRAM or GPU DRAM)
backed by a :class:`~repro.memory.backing.ByteStore`; an :class:`Allocator`
hands out sub-ranges of it, so benchmark code can ``malloc``/``free`` buffers
the way the original C code would have.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..errors import AllocationError
from .address import AddressRange, MemorySpace
from .backing import ByteStore


class Memory:
    """A physical memory window: an address range plus its backing bytes."""

    def __init__(self, name: str, base: int, size: int, space: MemorySpace) -> None:
        self.name = name
        self.range = AddressRange(base, size)
        self.space = space
        self.store = ByteStore(size)
        # Called as hook(offset, length) when an *external* agent (PCIe
        # fabric delivery) writes this memory — e.g. the GPU invalidates L2
        # sectors when a NIC DMA-writes device DRAM.
        self.write_hooks: list = []

    # Typed convenience accessors keyed by *physical address*.
    def read(self, addr: int, length: int) -> bytes:
        return self.store.read(self.range.offset_of(addr), length)

    def write(self, addr: int, data: bytes) -> None:
        self.store.write(self.range.offset_of(addr), data)

    def read_u64(self, addr: int) -> int:
        return self.store.read_u64(self.range.offset_of(addr))

    def write_u64(self, addr: int, value: int) -> None:
        self.store.write_u64(self.range.offset_of(addr), value)

    def read_u32(self, addr: int) -> int:
        return self.store.read_u32(self.range.offset_of(addr))

    def write_u32(self, addr: int, value: int) -> None:
        self.store.write_u32(self.range.offset_of(addr), value)

    def fill(self, addr: int, length: int, value: int) -> None:
        self.store.fill(self.range.offset_of(addr), length, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Memory {self.name} {self.range}>"


class Allocator:
    """First-fit allocator over a :class:`Memory` with coalescing free.

    Alignment defaults to 256 bytes (GPU malloc granularity); allocations are
    tracked so double-free and foreign-free raise.
    """

    def __init__(self, memory: Memory, alignment: int = 256,
                 region: Optional[AddressRange] = None) -> None:
        if alignment <= 0 or (alignment & (alignment - 1)) != 0:
            raise AllocationError(f"alignment must be a power of two, got {alignment}")
        self.memory = memory
        self.alignment = alignment
        self.region = region or memory.range
        if not memory.range.contains(self.region.base, self.region.size):
            raise AllocationError(
                f"allocator region {self.region} outside {memory.range}")
        # Free list of (base, size), sorted by base, non-adjacent.
        self._free: List[Tuple[int, int]] = [(self.region.base, self.region.size)]
        self._live: dict[int, int] = {}

    @property
    def bytes_free(self) -> int:
        return sum(size for _, size in self._free)

    def alloc(self, size: int) -> AddressRange:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        # Round the *placement* up to alignment within each free block.
        for i, (base, free_size) in enumerate(self._free):
            aligned = (base + self.alignment - 1) & ~(self.alignment - 1)
            pad = aligned - base
            if free_size - pad >= size:
                # Carve [aligned, aligned+size) out of this free block.
                remaining_head = (base, pad) if pad else None
                tail_base = aligned + size
                tail_size = base + free_size - tail_base
                pieces = []
                if remaining_head:
                    pieces.append(remaining_head)
                if tail_size:
                    pieces.append((tail_base, tail_size))
                self._free[i:i + 1] = pieces
                self._live[aligned] = size
                return AddressRange(aligned, size)
        raise AllocationError(
            f"out of memory in {self.memory.name}: requested {size}, "
            f"largest-capable free list exhausted ({self.bytes_free} total free)"
        )

    def free(self, rng: AddressRange) -> None:
        size = self._live.pop(rng.base, None)
        if size is None:
            raise AllocationError(f"free of unallocated range {rng}")
        if size != rng.size:
            self._live[rng.base] = size
            raise AllocationError(
                f"free size mismatch at {rng.base:#x}: allocated {size}, freed {rng.size}"
            )
        self._free.append((rng.base, rng.size))
        self._free.sort()
        # Coalesce adjacent blocks.
        merged: List[Tuple[int, int]] = []
        for base, sz in self._free:
            if merged and merged[-1][0] + merged[-1][1] == base:
                merged[-1] = (merged[-1][0], merged[-1][1] + sz)
            else:
                merged.append((base, sz))
        self._free = merged
