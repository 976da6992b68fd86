"""Byte-addressable backing storage.

Every simulated memory (host DRAM, GPU device memory, NIC SRAM) stores its
contents in a :class:`ByteStore`: a private anonymous memory map, read and
written through one ``memoryview`` and precompiled :mod:`struct` accessors.
All multi-byte accessors are little-endian, matching the x86/GPU side of
the paper's testbed; the InfiniBand model converts to big-endian
explicitly (that conversion cost is part of the paper's story, §V-B).

A multi-chunk DMA read does not copy its bytes out: it returns a
:class:`DmaPayload` of copy-on-write snapshots, ranges pinned in their
stores.  Every mutator of a store copies out the pinned snapshots it
overlaps before it writes, so a payload always holds the bytes the store
had when each range was pinned.
"""

from __future__ import annotations

import mmap
import struct
from typing import List, Optional

from ..errors import AddressError

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def _anonymous_map(size: int) -> mmap.mmap:
    """``size`` zero bytes whose pages are made when first written.

    Python maps anonymous memory shared unless told otherwise, and a shared
    page is allocated even by a read; a private page reads as the kernel's
    zero page until it is written."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, size)  # pragma: no cover - Windows: no flags


class _Snapshot:
    """Bytes ``[start, end)`` of ``store`` as of the turn they were pinned.

    While ``data`` is None the range is pinned and read from the store;
    the store's first mutator to overlap it sets ``data`` to a copy and
    drops the pin.  A snapshot made from bytes (``store`` None) starts
    with its ``data``."""

    __slots__ = ("store", "start", "end", "data")

    def __init__(self, store: Optional["ByteStore"], start: int, end: int,
                 data: Optional[bytes] = None) -> None:
        self.store = store
        self.start = start
        self.end = end
        self.data = data

    def read(self, lo: int, hi: int) -> bytes:
        """Bytes ``[lo, hi)`` of the snapshot."""
        if self.data is None:
            return self.store._view[self.start + lo:self.start + hi].tobytes()
        return self.data[lo:hi]


class ByteStore:
    """A flat array of ``size`` zero-initialised bytes with bounds-checked
    typed access.

    Readers get ``bytes``; a DMA reader can instead :meth:`pin` a range
    (see :class:`DmaPayload`).  Every mutator — :meth:`write`,
    :meth:`write_u32`, :meth:`write_u64`, :meth:`fill` and the destination
    of :meth:`copy` — first copies out the pinned ranges it overlaps.

    A ``memoryview`` slice wraps a negative offset and clips a range that
    runs past the end, and ``struct`` accepts a negative offset, so
    :meth:`_check` is the one guard on every access."""

    __slots__ = ("size", "_view", "_pins")

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise AddressError(f"backing store size must be positive, got {size}")
        self.size = size
        # The only reference to the map: freeing the store unmaps it.
        self._view = memoryview(_anonymous_map(size))
        #: Live snapshots of this store's bytes, in pin order.
        self._pins: List[_Snapshot] = []

    # -- bounds ---------------------------------------------------------------
    def _check(self, offset: int, length: int) -> None:
        if offset < 0 or length < 0 or offset + length > self.size:
            raise AddressError(
                f"access [{offset:#x}, {offset + length:#x}) outside store of "
                f"{self.size:#x} bytes"
            )

    # -- copy-on-write snapshots ----------------------------------------------
    def pin(self, offset: int, length: int) -> _Snapshot:
        """Snapshot ``length`` bytes at ``offset`` without copying them."""
        self._check(offset, length)
        snap = _Snapshot(self, offset, offset + length)
        self._pins.append(snap)
        return snap

    def unpin(self, snap: _Snapshot) -> None:
        """Drop ``snap``'s pin, if it still has one."""
        try:
            self._pins.remove(snap)
        except ValueError:
            pass

    def _copy_out(self, offset: int, length: int) -> None:
        """Detach every live snapshot that overlaps ``[offset, offset +
        length)`` by copying its bytes, ahead of a write to that range."""
        end = offset + length
        # Over a copy of the list: a payload's finalizer, run by the cyclic
        # collector at any allocation, may unpin meanwhile.
        for snap in self._pins[:]:
            if snap.start < end and offset < snap.end:
                snap.data = self._view[snap.start:snap.end].tobytes()
                self.unpin(snap)

    # -- raw bytes --------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self._view[offset:offset + length].tobytes()

    def write(self, offset: int, data: bytes | bytearray | memoryview) -> None:
        """Write any bytes-like object of unsigned bytes (``bytes``,
        ``bytearray``, a ``memoryview``, a ``uint8`` array)."""
        length = len(data)
        self._check(offset, length)
        if self._pins:
            self._copy_out(offset, length)
        self._view[offset:offset + length] = data

    def fill(self, offset: int, length: int, value: int) -> None:
        self._check(offset, length)
        if self._pins:
            self._copy_out(offset, length)
        self._view[offset:offset + length] = bytes((value,)) * length

    @staticmethod
    def copy(src: "ByteStore", src_off: int, dst: "ByteStore", dst_off: int,
             length: int) -> None:
        """Copy ``length`` bytes between two stores (the DMA primitive).
        Within one store the ranges may overlap: a ``memoryview`` copies
        through ``memmove``."""
        src._check(src_off, length)
        dst._check(dst_off, length)
        if dst._pins:
            dst._copy_out(dst_off, length)
        dst._view[dst_off:dst_off + length] = src._view[src_off:src_off + length]

    # -- typed little-endian accessors -----------------------------------------
    def read_u32(self, offset: int) -> int:
        self._check(offset, 4)
        return _U32.unpack_from(self._view, offset)[0]

    def write_u32(self, offset: int, value: int) -> None:
        self._check(offset, 4)
        if self._pins:
            self._copy_out(offset, 4)
        _U32.pack_into(self._view, offset, value & 0xFFFFFFFF)

    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return _U64.unpack_from(self._view, offset)[0]

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        if self._pins:
            self._copy_out(offset, 8)
        _U64.pack_into(self._view, offset, value & 0xFFFFFFFFFFFFFFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ByteStore {self.size:#x} bytes>"


class DmaPayload:
    """What a multi-chunk DMA read returns: its bytes, held as snapshots of
    the source stores instead of copies.

    ``len()`` is its length and ``bytes()`` its content: the source bytes
    as of the turn each chunk was collected (:meth:`pin`, :meth:`append`).
    Writing a range of it to a store (:meth:`copy_into`, one DMA write
    chunk at a time) copies each snapshot once, straight from the source
    store while it is still pinned.  When the payload is freed, the
    snapshots still pinned are unpinned.
    """

    def __init__(self) -> None:
        self._parts: List[_Snapshot] = []
        self._length = 0

    # -- gathering (PcieFabric._read, at each chunk's collect turn) ------------
    def pin(self, store: ByteStore, offset: int, length: int) -> None:
        """Append ``length`` bytes of ``store`` at ``offset``: the last
        snapshot grows when it is the adjacent range, still pinned."""
        last = self._parts[-1] if self._parts else None
        if (last is not None and last.store is store and last.data is None
                and last.end == offset):
            store._check(offset, length)
            last.end += length
        else:
            self._parts.append(store.pin(offset, length))
        self._length += length

    def append(self, data: bytes) -> None:
        """Append bytes read from a target that is not a store range."""
        self._parts.append(_Snapshot(None, 0, len(data), data))
        self._length += len(data)

    # -- reading ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __bytes__(self) -> bytes:
        return b"".join(snap.read(0, snap.end - snap.start)
                        for snap in self._parts)

    def copy_into(self, dst: ByteStore, offset: int, start: int,
                  length: int) -> None:
        """Write the payload's ``length`` bytes from ``start`` to ``dst`` at
        ``offset``."""
        stop = start + length
        pos = 0
        for snap in self._parts:
            end = pos + snap.end - snap.start
            lo, hi = max(start, pos), min(stop, end)
            if lo < hi:
                if snap.data is None:
                    ByteStore.copy(snap.store, snap.start + lo - pos, dst,
                                   offset, hi - lo)
                else:
                    dst.write(offset, memoryview(snap.data)[lo - pos:hi - pos])
                offset += hi - lo
            pos = end

    def __del__(self) -> None:
        for snap in self._parts:
            if snap.data is None:
                snap.store.unpin(snap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DmaPayload {len(self)} bytes in {len(self._parts)} parts>"
