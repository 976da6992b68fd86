"""Queue pairs (§IV-A).

A QP is two rings — a send queue and a receive queue — plus the completion
queues they report into.  The rings are ordinary memory the user allocates:
host memory normally, GPU device memory with the patched drivers
(``dev2devBufOnGPU``).  Software writes WQEs into the rings and notifies the
HCA through its doorbell register; the HCA fetches WQEs by DMA.

The QP carries no packet sequence numbers: RC here runs on the lossless,
in-order fabric of the paper, so nothing is ever replayed or reordered.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import QpStateError, VerbsError
from ..memory import AddressRange
from .cq import CompletionQueue
from .wqe import WQE_BYTES


class QpState(enum.Enum):
    RESET = "RESET"
    INIT = "INIT"
    RTR = "RTR"    # ready to receive
    RTS = "RTS"    # ready to send


@dataclass
class QueuePair:
    qp_num: int
    sq_buffer: AddressRange
    rq_buffer: AddressRange
    sq_entries: int
    rq_entries: int
    send_cq: CompletionQueue
    recv_cq: CompletionQueue
    location: str                        # where the rings live: "host"/"gpu"
    state: QpState = QpState.RESET
    # Connection (filled when transitioning to RTR/RTS).
    remote_node: Optional[int] = None
    remote_qp_num: Optional[int] = None
    # Hardware-side consumer indices.
    sq_consumer: int = 0
    rq_consumer: int = 0
    # Hardware-visible producer indices (updated by doorbells).
    sq_producer_seen: int = 0
    rq_producer_seen: int = 0

    def __post_init__(self) -> None:
        if self.sq_buffer.size < self.sq_entries * WQE_BYTES:
            raise VerbsError("SQ buffer too small")
        if self.rq_buffer.size < self.rq_entries * WQE_BYTES:
            raise VerbsError("RQ buffer too small")
        if self.location not in ("host", "gpu"):
            raise VerbsError(f"bad QP buffer location {self.location!r}")

    # -- ring math ---------------------------------------------------------------
    def sq_slot_addr(self, index: int) -> int:
        return self.sq_buffer.base + (index % self.sq_entries) * WQE_BYTES

    def rq_slot_addr(self, index: int) -> int:
        return self.rq_buffer.base + (index % self.rq_entries) * WQE_BYTES

    # -- state machine ---------------------------------------------------------------
    def to_init(self) -> None:
        if self.state is not QpState.RESET:
            raise QpStateError(f"QP{self.qp_num}: INIT from {self.state}")
        self.state = QpState.INIT

    def to_rtr(self, remote_node: int, remote_qp_num: int) -> None:
        if self.state is not QpState.INIT:
            raise QpStateError(f"QP{self.qp_num}: RTR from {self.state}")
        self.remote_node = remote_node
        self.remote_qp_num = remote_qp_num
        self.state = QpState.RTR

    def to_rts(self) -> None:
        if self.state is not QpState.RTR:
            raise QpStateError(f"QP{self.qp_num}: RTS from {self.state}")
        self.state = QpState.RTS

    def require_rts(self) -> None:
        if self.state is not QpState.RTS:
            raise QpStateError(
                f"QP{self.qp_num}: send requires RTS, state is {self.state.value}")

    def require_rtr(self) -> None:
        if self.state not in (QpState.RTR, QpState.RTS):
            raise QpStateError(
                f"QP{self.qp_num}: receive requires RTR/RTS, state is "
                f"{self.state.value}")

    @property
    def rq_outstanding(self) -> int:
        """Posted-but-unconsumed receive WQEs."""
        return self.rq_producer_seen - self.rq_consumer
