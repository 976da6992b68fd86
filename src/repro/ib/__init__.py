"""InfiniBand model: WQEs, MRs, QPs, CQs, the HCA, and host Verbs."""

from .config import IbConfig
from .cq import CQE_BYTES, CompletionQueue, Cqe, WcOpcode, WcStatus
from .hca import Hca, encode_doorbell
from .mr import MemoryRegion, MrTable
from .qp import QpState, QueuePair
from .verbs import (
    CqConsumer,
    HOST_POLL_CQ_INSTRUCTIONS,
    HOST_POST_SEND_INSTRUCTIONS,
    IbResources,
    connect_qps,
    ibv_poll_cq,
    ibv_post_recv,
    ibv_post_send,
    ibv_wait_cq,
)
from .wqe import (
    WQE_BYTES,
    IbOpcode,
    Wqe,
    poll_cq_instruction_cost,
    post_send_instruction_cost,
    post_send_instruction_cost_static_optimized,
)

__all__ = [
    "IbConfig",
    "CompletionQueue",
    "Cqe",
    "CQE_BYTES",
    "WcOpcode",
    "WcStatus",
    "Hca",
    "encode_doorbell",
    "MemoryRegion",
    "MrTable",
    "QpState",
    "QueuePair",
    "CqConsumer",
    "IbResources",
    "connect_qps",
    "ibv_poll_cq",
    "ibv_post_recv",
    "ibv_post_send",
    "ibv_wait_cq",
    "HOST_POLL_CQ_INSTRUCTIONS",
    "HOST_POST_SEND_INSTRUCTIONS",
    "IbOpcode",
    "Wqe",
    "WQE_BYTES",
    "poll_cq_instruction_cost",
    "post_send_instruction_cost",
    "post_send_instruction_cost_static_optimized",
]
