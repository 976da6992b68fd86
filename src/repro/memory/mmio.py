"""Memory-mapped IO windows.

Devices expose registers and doorbell pages as :class:`MmioWindow`s in the
node's physical address map.  Stores that the interconnect routes here
invoke the device's handler *functionally at the time of delivery*; all
timing is accounted by the path that carried the access (PCIe link model).

This is how the paper's two posting mechanisms are modeled:

* EXTOLL: writing a work request directly to the RMA requester page in the
  NIC's PCIe BAR (three 64-bit stores; the last one triggers execution),
* InfiniBand: ringing the doorbell register after writing the WQE to a queue
  buffer in ordinary memory.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..errors import AddressError
from .address import AddressRange, MemorySpace
from .backing import ByteStore

WriteHandler = Callable[[int, bytes], None]   # (offset, data)


class MmioWindow:
    """A device-register window in the physical address map.

    The window keeps a backing store so reads return the last written
    value (real BARs behave like device SRAM for scratch areas); write
    handlers registered for sub-ranges intercept stores.
    """

    def __init__(self, name: str, base: int, size: int) -> None:
        self.name = name
        self.range = AddressRange(base, size)
        self.space = MemorySpace.MMIO
        self.store = ByteStore(size)
        self._write_handlers: Dict[AddressRange, WriteHandler] = {}

    # -- handler registration ---------------------------------------------------
    def on_write(self, offset: int, size: int, handler: WriteHandler) -> None:
        rng = AddressRange(offset, size)
        for existing in self._write_handlers:
            if existing.overlaps(rng):
                raise AddressError(f"write handler overlap at {rng} in {self.name}")
        self._write_handlers[rng] = handler

    # -- access (called by the interconnect at delivery time) -------------------
    def write(self, offset: int, data: bytes) -> None:
        self.store.write(offset, data)
        for rng, handler in self._write_handlers.items():
            if rng.contains(offset, len(data)):
                handler(offset - rng.base, data)
                return

    def read(self, offset: int, length: int) -> bytes:
        return self.store.read(offset, length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MmioWindow {self.name} {self.range}>"
