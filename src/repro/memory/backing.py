"""Byte-addressable backing storage.

Every simulated memory (host DRAM, GPU device memory, NIC SRAM) stores its
contents in a :class:`ByteStore` — a NumPy ``uint8`` array with typed
accessors.  All multi-byte accessors are little-endian, matching the x86/GPU
side of the paper's testbed; the InfiniBand model converts to big-endian
explicitly (that conversion cost is part of the paper's story, §V-B).

A multi-chunk DMA read does not copy its bytes out: it returns a
:class:`DmaPayload` of copy-on-write snapshots, ranges pinned in their
stores.  Every mutator of a store copies out the pinned snapshots it
overlaps before it writes, so a payload always holds the bytes the store
had when each range was pinned.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import AddressError


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
            return self.store._data[self.start + lo:self.start + hi].tobytes()
        return self.data[lo:hi]


class ByteStore:
    """A flat array of ``size`` bytes with bounds-checked typed access.

    Readers get ``bytes``; a DMA reader can instead :meth:`pin` a range
    (see :class:`DmaPayload`).  Every mutator — :meth:`write`,
    :meth:`write_u32`, :meth:`write_u64`, :meth:`fill` and the destination
    of :meth:`copy` — first copies out the pinned ranges it overlaps."""

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
                snap.data = self._data[snap.start:snap.end].tobytes()
                self.unpin(snap)

    # -- raw bytes --------------------------------------------------------------
    def read(self, offset: int, length: int) -> bytes:
        self._check(offset, length)
        return self._data[offset:offset + length].tobytes()

    def write(self, offset: int, data: bytes | bytearray | memoryview | np.ndarray) -> None:
        buf = np.frombuffer(data, dtype=np.uint8) if not isinstance(data, np.ndarray) \
            else data.astype(np.uint8, copy=False).ravel()
        self._check(offset, len(buf))
        if self._pins:
            self._copy_out(offset, len(buf))
        self._data[offset:offset + len(buf)] = buf

    def fill(self, offset: int, length: int, value: int) -> None:
        self._check(offset, length)
        if self._pins:
            self._copy_out(offset, length)
        self._data[offset:offset + length] = value

    @staticmethod
    def copy(src: "ByteStore", src_off: int, dst: "ByteStore", dst_off: int,
             length: int) -> None:
        """Copy ``length`` bytes between two stores (the DMA primitive)."""
        src._check(src_off, length)
        dst._check(dst_off, length)
        if dst._pins:
            dst._copy_out(dst_off, length)
        dst._data[dst_off:dst_off + length] = src._data[src_off:src_off + length]

    # -- typed little-endian accessors -----------------------------------------
    def read_u32(self, offset: int) -> int:
        self._check(offset, 4)
        return int.from_bytes(self._data[offset:offset + 4].tobytes(), "little")

    def write_u32(self, offset: int, value: int) -> None:
        self._check(offset, 4)
        if self._pins:
            self._copy_out(offset, 4)
        self._data[offset:offset + 4] = np.frombuffer(
            (value & 0xFFFFFFFF).to_bytes(4, "little"), dtype=np.uint8)

    def read_u64(self, offset: int) -> int:
        self._check(offset, 8)
        return int.from_bytes(self._data[offset:offset + 8].tobytes(), "little")

    def write_u64(self, offset: int, value: int) -> None:
        self._check(offset, 8)
        if self._pins:
            self._copy_out(offset, 8)
        self._data[offset:offset + 8] = np.frombuffer(
            (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"), dtype=np.uint8)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ByteStore {self.size:#x} bytes>"


class DmaPayload:
    """What a multi-chunk DMA read returns: its bytes, held as snapshots of
    the source stores instead of copies.

    ``len()`` is its length and ``bytes()`` its content: the source bytes
    as of the turn each chunk was collected (:meth:`pin`, :meth:`append`).
    Writing it to a store (:meth:`copy_into`) copies each snapshot once,
    straight from the source store while it is still pinned.  A slice is
    a view that shares the snapshots and keeps this payload alive; when
    the payload itself is freed, the snapshots still pinned are unpinned.
    """

    def __init__(self, parts: Optional[List[_Snapshot]] = None,
                 start: int = 0, stop: int = 0,
                 owner: Optional["DmaPayload"] = None) -> None:
        self._parts = [] if parts is None else parts
        self._start = start
        self._stop = stop
        #: The payload a view reads through; None for the payload itself.
        self._owner = owner

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
        self._stop += length

    def append(self, data: bytes) -> None:
        """Append bytes read from a target that is not a store range."""
        self._parts.append(_Snapshot(None, 0, len(data), data))
        self._stop += len(data)

    # -- reading ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._stop - self._start

    def __getitem__(self, key: slice) -> "DmaPayload":
        start, stop, step = key.indices(self._stop - self._start)
        if step != 1:
            raise ValueError("a DMA payload slices contiguously")
        return DmaPayload(self._parts, self._start + start,
                          self._start + max(start, stop),
                          self._owner or self)

    def _segments(self) -> Iterator[Tuple[_Snapshot, int, int]]:
        """``(snapshot, lo, hi)`` for each part this payload covers, with
        ``[lo, hi)`` relative to the snapshot."""
        pos = 0
        for snap in self._parts:
            end = pos + snap.end - snap.start
            lo, hi = max(self._start, pos), min(self._stop, end)
            if lo < hi:
                yield snap, lo - pos, hi - pos
            pos = end

    def __bytes__(self) -> bytes:
        return b"".join(snap.read(lo, hi) for snap, lo, hi in self._segments())

    def copy_into(self, dst: ByteStore, offset: int) -> None:
        """Write the payload to ``dst`` at ``offset``."""
        for snap, lo, hi in self._segments():
            if snap.data is None:
                ByteStore.copy(snap.store, snap.start + lo, dst, offset,
                               hi - lo)
            else:
                dst.write(offset, memoryview(snap.data)[lo:hi])
            offset += hi - lo

    def __del__(self) -> None:
        if self._owner is None:
            for snap in self._parts:
                if snap.data is None:
                    snap.store.unpin(snap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DmaPayload {len(self)} bytes in {len(self._parts)} parts>"
