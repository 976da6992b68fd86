"""PCIe transaction-layer packets (TLPs) — the timing currency of the fabric.

Only the properties that matter for throughput/latency are modeled: size
and routing.  Payload bytes move functionally at delivery time.  Every hop
is framed as posted-write TLPs of at most ``max_payload`` bytes; a
:class:`Tlp` object is built only to describe a hop on a trace span.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class TlpKind(enum.Enum):
    MEM_WRITE = "MWr"        # posted


# Gen2/Gen3-era framing overhead per TLP: 12-16 B header + 8 B framing/seq/CRC.
TLP_OVERHEAD_BYTES = 24


@dataclass(frozen=True)
class Tlp:
    """One transaction-layer packet, as a trace span names it."""

    kind: TlpKind
    address: int
    length: int                       # wire bytes less one TLP's framing
    tag: int                          # numbered per link

    def trace_attrs(self) -> dict:
        """Key/value attributes identifying this TLP on a trace span."""
        return {"kind": self.kind.value, "addr": hex(self.address),
                "bytes": self.length, "tag": self.tag}

    def __str__(self) -> str:
        return f"{self.kind.value}@{self.address:#x}+{self.length}"
