"""Network packets exchanged between NICs.

A packet carries a functional payload plus the metadata the NIC pipelines
need.  ``wire_bytes`` determines serialization time; each fabric
defines its own per-packet header overhead.

Integrity: packets optionally carry a link-layer ``checksum`` (CRC-32 of
the payload).  The default is ``None`` — the reliable-fabric assumption of
the paper — and costs nothing.  The fault injector :mod:`repro.faults`
seals a packet before flipping payload bytes, so receivers can detect the
corruption with :attr:`Packet.is_corrupt` exactly the way real link-layer
CRCs catch bad frames.
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from typing import Optional


class PacketKind(enum.Enum):
    RMA_PUT = "rma_put"               # EXTOLL put: header + payload
    RMA_GET_REQUEST = "rma_get_req"   # EXTOLL get: header only
    RMA_GET_RESPONSE = "rma_get_rsp"  # EXTOLL responder payload
    IB_RDMA_WRITE = "ib_rdma_write"
    IB_RDMA_READ_REQ = "ib_rdma_read_req"
    IB_RDMA_READ_RSP = "ib_rdma_read_rsp"
    IB_SEND = "ib_send"
    IB_ACK = "ib_ack"
    FABRIC = "fabric"                 # scale-out fabric message (repro.fabrics)



@dataclass
class Packet:
    kind: PacketKind
    src_node: int
    dst_node: int
    header_bytes: int
    #: ``bytes``, or the :class:`~repro.memory.DmaPayload` a multi-chunk
    #: DMA read returned; ``bytes(payload)`` gives its content.
    payload: bytes = b""
    meta: dict = field(default_factory=dict)
    #: Trace id, unique per simulator: the sender draws it from
    #: ``sim.packet_seq``, so a trace names the same packets whatever ran
    #: earlier in the process.
    seq: int = field(kw_only=True)
    # Link-layer CRC of the payload; None (the default) means "not sealed"
    # and all integrity checks pass for free.
    checksum: Optional[int] = None

    @property
    def wire_bytes(self) -> int:
        return self.header_bytes + len(self.payload)

    # -- integrity ---------------------------------------------------------------
    def compute_checksum(self) -> int:
        return zlib.crc32(bytes(self.payload))

    @property
    def is_corrupt(self) -> bool:
        """True iff the packet was sealed and the payload no longer matches
        its CRC.  Unsealed packets (the default, zero-cost path) are never
        corrupt."""
        return (self.checksum is not None
                and self.checksum != zlib.crc32(bytes(self.payload)))

    def clone(self, seq: int, payload: Optional[bytes] = None) -> "Packet":
        """An independent copy with trace id ``seq`` — used by the fault
        injector to corrupt a delivery without touching the sender's
        retransmission copy, and by retransmission engines to re-send."""
        return Packet(self.kind, self.src_node, self.dst_node,
                      self.header_bytes,
                      self.payload if payload is None else payload,
                      dict(self.meta), seq=seq, checksum=self.checksum)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Packet {self.kind.value} {self.src_node}->{self.dst_node} "
                f"{len(self.payload)}B>")
