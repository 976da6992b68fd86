"""DMA engines — how NICs move payload without CPU/GPU involvement.

A :class:`DmaEngine` sits on a PCIe port and copies byte ranges between the
node's memories and the device's internal staging.  Transfers are chunked so
long copies don't monopolize the fabric, and the engine itself is a capacity-1
resource: one NIC DMA context processes one descriptor at a time, which is
the serialization point that bounds message rate on the NIC side.

A read longer than one chunk returns a :class:`~repro.memory.DmaPayload`:
each chunk is pinned in its source store at its collect turn rather than
copied, and the write that lands it copies it once into the destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..errors import PcieError
from ..memory import DmaPayload
from ..sim import NULL_SPAN, Resource, Simulator
from ..units import KIB
from .switch import PciePort


@dataclass(frozen=True)
class DmaConfig:
    chunk_bytes: int = 16 * KIB     # fabric fairness granularity
    setup_time: float = 0.0         # per-transfer engine setup
    contexts: int = 1               # concurrent transfers the engine pipelines

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise PcieError("chunk_bytes must be positive")
        if self.setup_time < 0:
            raise PcieError("setup_time must be non-negative")
        if self.contexts < 1:
            raise PcieError("contexts must be >= 1")


class DmaEngine:
    """A chunking reader/writer bound to one PCIe port."""

    def __init__(self, sim: Simulator, port: PciePort, name: str = "dma",
                 config: DmaConfig | None = None) -> None:
        self.sim = sim
        self.port = port
        self.name = name
        self.config = config or DmaConfig()
        self.busy = Resource(sim, capacity=self.config.contexts, name=f"{name}.ctx")
        # Free-list of context ids: each in-flight transfer borrows one so
        # concurrent transfers land on distinct trace tracks.
        self._free_ctx = list(range(self.config.contexts - 1, -1, -1))
        self.bytes_moved = 0
        self.transfers = 0

    def _track(self, ctx_id: int) -> str:
        if self.config.contexts == 1:
            return self.name
        return f"{self.name}.ctx{ctx_id}"

    def read(self, addr: int, length: int) -> Generator:
        """Gather ``length`` bytes starting at node-physical ``addr``;
        simulated time covers the full fetch.  Returns ``bytes`` for one
        chunk, else a :class:`~repro.memory.DmaPayload` of the source as
        each chunk's collect turn found it."""
        if length <= 0:
            raise PcieError(f"DMA read of {length} bytes")
        yield self.busy.acquire()
        ctx_id = self._free_ctx.pop()
        trc = self.sim.tracer
        traced = trc.wants("dma")
        span = (trc.begin("dma", "dma-read", track=self._track(ctx_id),
                          addr=hex(addr), bytes=length)
                if traced else NULL_SPAN)
        try:
            if self.config.setup_time:
                yield self.sim.timeout(self.config.setup_time)
            chunk = self.config.chunk_bytes
            # Snapshots pay off only past one chunk: a single-chunk read is
            # small, and one copy costs less than a pin.
            payload = DmaPayload() if length > chunk else None
            offset = 0
            while offset < length:
                step = min(chunk, length - offset)
                # stream_total triggers the P2P pathology for large streams.
                data = yield from self.port.read(addr + offset, step,
                                                 stream_total=length,
                                                 into=payload)
                offset += step
        finally:
            span.end()
            self._free_ctx.append(ctx_id)
            self.busy.release()
        self.bytes_moved += length
        self.transfers += 1
        if traced:
            trc.metrics.counter("dma.bytes_read").inc(length)
        return data if payload is None else payload

    def write(self, addr: int, data: bytes | DmaPayload) -> Generator:
        """Scatter ``data`` to node-physical ``addr``."""
        length = len(data)
        if not length:
            raise PcieError("DMA write of zero bytes")
        yield self.busy.acquire()
        ctx_id = self._free_ctx.pop()
        trc = self.sim.tracer
        traced = trc.wants("dma")
        span = (trc.begin("dma", "dma-write", track=self._track(ctx_id),
                          addr=hex(addr), bytes=length)
                if traced else NULL_SPAN)
        try:
            if self.config.setup_time:
                yield self.sim.timeout(self.config.setup_time)
            offset = 0
            while offset < length:
                step = min(self.config.chunk_bytes, length - offset)
                yield from self.port.write(addr + offset, data, offset, step)
                offset += step
        finally:
            span.end()
            self._free_ctx.append(ctx_id)
            self.busy.release()
        self.bytes_moved += length
        self.transfers += 1
        if traced:
            trc.metrics.counter("dma.bytes_written").inc(length)
