"""Work-queue entries — 64-byte big-endian descriptors.

InfiniBand hardware consumes **big-endian** control structures; on the
little-endian hosts/GPUs of the testbed every address, key, and length field
must be byte-swapped while building the WQE.  The paper measures this
conversion as a major part of the 442 instructions of ``ibv_post_send``
(§V-B3) and notes the optimization of statically pre-converting constant
fields — both are modeled by the instruction-cost constants below, which the
GPU/CPU posting code charges while assembling descriptors.

Layout (eight big-endian u64 words):

* word 0: | opcode:8 | reserved:24 | byte_len:32 |
* word 1: wr_id
* word 2: local address          * word 3: | lkey:32 | reserved:32 |
* word 4: remote address         * word 5: | rkey:32 | immediate:32 |
* words 6-7: reserved ("stamped" when the slot is reused)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import VerbsError

WQE_BYTES = 64

# Instruction-cost model for assembling/parsing control structures (counts
# charged by posting/polling code; calibrated so a GPU ibv_post_send lands at
# ~442 instructions and ibv_poll_cq at ~283, §V-B3).
ENDIAN_SWAP_COST = 14          # byteswap + shifts/or per 64-bit field
DYNAMIC_FIELDS = 5             # addr, rkey-word, len-word, wr_id, lkey-word
WQE_BUILD_BASE_COST = 300      # bounds/state checks, ring math, segment setup
WQE_STAMP_COST = 48            # stamping old queue elements for the prefetcher
DOORBELL_BUILD_COST = 24       # assemble the doorbell record
CQE_PARSE_BASE_COST = 96       # validity check, status decode, counter math
CQ_QP_LOOKUP_COST = 60         # picking the QP out of the QP list (§V-B3)
CQE_CONSUME_COST = 40          # consumer-index update bookkeeping


class IbOpcode(enum.IntEnum):
    RDMA_WRITE = 1
    RDMA_WRITE_WITH_IMM = 2
    SEND = 3
    RDMA_READ = 4
    RECV = 5  # RQ-side pseudo-opcode


@dataclass(frozen=True)
class Wqe:
    opcode: IbOpcode
    wr_id: int
    local_addr: int
    lkey: int
    length: int
    remote_addr: int = 0
    rkey: int = 0
    immediate: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0 or self.length >= 1 << 32:
            raise VerbsError(f"WQE length out of range: {self.length}")
        for name in ("lkey", "rkey", "immediate"):
            if not 0 <= getattr(self, name) < 1 << 32:
                raise VerbsError(f"WQE {name} out of range")

    def encode(self) -> bytes:
        words = [
            ((int(self.opcode) & 0xFF) << 56) | (self.length & 0xFFFFFFFF),
            self.wr_id,
            self.local_addr,
            (self.lkey & 0xFFFFFFFF) << 32,
            self.remote_addr,
            ((self.rkey & 0xFFFFFFFF) << 32) | (self.immediate & 0xFFFFFFFF),
            0,
            0,
        ]
        return b"".join(w.to_bytes(8, "big") for w in words)

    @classmethod
    def decode(cls, raw: bytes) -> "Wqe":
        if len(raw) != WQE_BYTES:
            raise VerbsError(f"WQE must be {WQE_BYTES} bytes, got {len(raw)}")
        words = [int.from_bytes(raw[i:i + 8], "big") for i in range(0, 64, 8)]
        op_val = (words[0] >> 56) & 0xFF
        try:
            opcode = IbOpcode(op_val)
        except ValueError:
            raise VerbsError(f"bad WQE opcode {op_val}") from None
        return cls(
            opcode=opcode,
            length=words[0] & 0xFFFFFFFF,
            wr_id=words[1],
            local_addr=words[2],
            lkey=(words[3] >> 32) & 0xFFFFFFFF,
            remote_addr=words[4],
            rkey=(words[5] >> 32) & 0xFFFFFFFF,
            immediate=words[5] & 0xFFFFFFFF,
        )


def post_send_instruction_cost() -> int:
    """Total instruction count of assembling and posting one send WQE —
    the ~442 instructions the paper measures for ``ibv_post_send``."""
    return (WQE_BUILD_BASE_COST
            + DYNAMIC_FIELDS * ENDIAN_SWAP_COST
            + WQE_STAMP_COST
            + DOORBELL_BUILD_COST)


def post_send_instruction_cost_static_optimized() -> int:
    """The paper's GPU optimization: constant fields pre-converted, only
    source/destination address and size swapped per request (§V-B3)."""
    return (WQE_BUILD_BASE_COST
            + 3 * ENDIAN_SWAP_COST
            + WQE_STAMP_COST
            + DOORBELL_BUILD_COST)


def poll_cq_instruction_cost() -> int:
    """Instruction count of one *successful* ``ibv_poll_cq`` — the ~283
    instructions the paper measures, including the QP-list lookup."""
    return (CQE_PARSE_BASE_COST
            + ENDIAN_SWAP_COST * 3
            + CQ_QP_LOOKUP_COST
            + CQE_CONSUME_COST
            + WQE_STAMP_COST - 3)
