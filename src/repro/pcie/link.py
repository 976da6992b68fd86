"""The PCIe link timing model.

A link is full duplex: each direction is a FIFO pipe with finite bandwidth.
Moving a stream costs ``wire_bytes / bandwidth`` of serialization (during
which the direction is busy — this is where contention between concurrent
agents appears) plus a fixed propagation/forwarding latency to arrive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Generator

from ..errors import ConfigError
from ..sim import NULL_SPAN, Event, Resource, Simulator
from ..units import GB_PER_S, NS
from .tlp import TLP_OVERHEAD_BYTES, Tlp, TlpKind

#: Posted writes at or below this payload are control traffic (doorbells,
#: flags, read pointers) rather than data movement; the traced
#: ``pcie.ctrl_writes`` metric counts every hop this short.
CTRL_WRITE_BYTES = 8


@dataclass(frozen=True)
class PcieLinkConfig:
    """Timing parameters of one PCIe link (both directions symmetric).

    Defaults approximate a Gen2 x8 link of the paper's era (~4 GB/s raw,
    ~3.2 GB/s effective after encoding).
    """

    bandwidth: float = 3.2 * GB_PER_S   # effective bytes/second per direction
    latency: float = 160 * NS           # one-way: PHY + switch + root complex
    max_payload: int = 256              # bytes per MEM_WRITE / COMPLETION TLP
    max_read_request: int = 512         # bytes per MEM_READ request

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0:
            raise ConfigError("link bandwidth must be positive, latency non-negative")
        if self.max_payload <= 0 or self.max_read_request <= 0:
            raise ConfigError("TLP size limits must be positive")


class PcieLink:
    """One direction-pair between a device and the root complex."""

    def __init__(self, sim: Simulator, name: str,
                 config: PcieLinkConfig | None = None) -> None:
        self.sim = sim
        self.name = name
        self.config = config or PcieLinkConfig()
        # Independent serializers per direction.
        self._up = Resource(sim, capacity=1, name=f"{name}.up")     # device -> RC
        self._down = Resource(sim, capacity=1, name=f"{name}.down") # RC -> device
        # Each hop adds ``wire - 24``: the payload plus the framing of every
        # TLP but one.  The bench reference pins this sum as ``pcie.bytes``.
        self.bytes_up = 0
        self.bytes_down = 0
        # Tags of traced TLPs: per link, so a trace file does not depend on
        # what ran earlier in the process.
        self._tags = itertools.count()

    def _send(self, up: bool, nbytes: int,
              bandwidth: float) -> Generator[Event, None, None]:
        """Move an ``nbytes`` stream over one direction: hold it for the
        stream's wire time (``nbytes`` plus framing per ``max_payload``
        TLP) at ``bandwidth``, then wait out the propagation latency.
        Returns at *delivery* time."""
        wire = nbytes + TLP_OVERHEAD_BYTES * -(-nbytes // self.config.max_payload)
        length = wire - TLP_OVERHEAD_BYTES
        direction = self._up if up else self._down
        trc = self.sim.tracer
        # Per-hop instrumentation is the hottest site in the stack; gate on
        # wants() so a category-filtered tracer (the telemetry flight
        # recorder) builds no TLP at all.
        traced = trc.wants("pcie")
        yield direction.acquire()
        # The span covers the serialization window only (the direction is
        # exclusively held), so spans on one link track never overlap.
        if traced:
            tlp = Tlp(TlpKind.MEM_WRITE, 0, length, next(self._tags))
            span = trc.begin("pcie", str(tlp),
                             track=f"{self.name}.{'up' if up else 'down'}",
                             **tlp.trace_attrs())
        else:
            span = NULL_SPAN
        try:
            yield self.sim.timeout(wire / bandwidth)
        finally:
            span.end()
            direction.release()
        if up:
            self.bytes_up += length
        else:
            self.bytes_down += length
        yield self.sim.timeout(self.config.latency)
        if traced:
            m = trc.metrics
            m.counter(f"pcie.tlps_{'up' if up else 'down'}").inc()
            m.counter("pcie.wire_bytes").inc(wire)
            if length <= CTRL_WRITE_BYTES:
                m.counter("pcie.ctrl_writes").inc()
