"""Byte-addressable backing storage.

Every simulated memory (host DRAM, GPU device memory, NIC SRAM) stores its
contents in a :class:`ByteStore` — a NumPy ``uint8`` array with typed
accessors.  All multi-byte accessors are little-endian, matching the x86/GPU
side of the paper's testbed; the InfiniBand model converts to big-endian
explicitly (that conversion cost is part of the paper's story, §V-B).
"""

from __future__ import annotations

import numpy as np

from ..errors import AddressError


class ByteStore:
    """A flat array of ``size`` bytes with bounds-checked typed access."""

    def __init__(self, size: int, fill: int = 0) -> None:
        if size <= 0:
            raise AddressError(f"backing store size must be positive, got {size}")
        self.size = size
        if fill == 0:
            # calloc-backed: pages materialize only when touched, so large
            # simulated memories cost real RAM proportional to actual use.
            self._data = np.zeros(size, dtype=np.uint8)
        else:
            self._data = np.full(size, fill, dtype=np.uint8)

    # -- bounds ---------------------------------------------------------------
    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise AddressError(
                f"access [{offset:#x}, {offset + length:#x}) outside store of "
                f"{self.size:#x} bytes"
            )

    # -- raw bytes --------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self._data[offset:offset + length].tobytes()

    def write(self, offset: int, data: bytes | bytearray | memoryview | np.ndarray) -> None:
        buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) \
            else data.astype(np.uint8, copy=False).ravel()
        self._check(offset, len(buf))
        self._data[offset:offset + len(buf)] = buf

    def view(self, offset: int, length: int) -> np.ndarray:
        """A zero-copy view (mutations write through)."""
        self._check(offset, length)
        return self._data[offset:offset + length]

    def fill(self, offset: int, length: int, value: int) -> None:
        self._check(offset, length)
        self._data[offset:offset + length] = value

    @staticmethod
    def copy(src: "ByteStore", src_off: int, dst: "ByteStore", dst_off: int,
             length: int) -> None:
        """Copy ``length`` bytes between two stores (the DMA primitive)."""
        src._check(src_off, length)
        dst._check(dst_off, length)
        dst._data[dst_off:dst_off + length] = src._data[src_off:src_off + length]

    # -- typed little-endian accessors -----------------------------------------
    def read_u32(self, offset: int) -> int:
        self._check(offset, 4)
        return int.from_bytes(self._data[offset:offset + 4].tobytes(), "little")

    def write_u32(self, offset: int, value: int) -> None:
        self._check(offset, 4)
        self._data[offset:offset + 4] = np.frombuffer(
            (value & 0xFFFFFFFF).to_bytes(4, "little"), dtype=np.uint8)

    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return int.from_bytes(self._data[offset:offset + 8].tobytes(), "little")

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        self._data[offset:offset + 8] = np.frombuffer(
            (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), dtype=np.uint8)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ByteStore {self.size:#x} bytes>"
