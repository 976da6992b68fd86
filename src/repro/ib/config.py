"""InfiniBand HCA parameters (Mellanox 4X FDR era, §V)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError
from ..network import NetLinkConfig
from ..units import GB_PER_S, KIB, NS


@dataclass(frozen=True)
class IbConfig:
    name: str = "connectx-fdr"
    # 4X FDR: 54.54 Gb/s signalling, ~6.8 GB/s payload after 64/66 encoding.
    # GPU<->GPU traffic is capped well below this by the PCIe P2P path.
    link: NetLinkConfig = field(default_factory=lambda: NetLinkConfig(
        bandwidth=6.0 * GB_PER_S, latency=450 * NS))

    # Wire/queue formats.
    wqe_bytes: int = 64
    cqe_bytes: int = 32
    packet_header_bytes: int = 58      # LRH+BTH+RETH+ICRC era framing

    # HCA pipeline.
    processing_contexts: int = 4       # concurrent WQE executions
    doorbell_to_fetch: float = 150 * NS   # doorbell decode + scheduling
    wqe_execute_overhead: float = 200 * NS
    ack_overhead: float = 120 * NS

    # BAR layout.
    bar_size: int = 64 * KIB
    doorbell_offset: int = 0x0
    doorbell_stride: int = 8           # one u64 doorbell record per ring

    # Limits.
    max_qps: int = 256
    sq_entries: int = 128
    rq_entries: int = 128
    cq_entries: int = 256

    def __post_init__(self) -> None:
        if self.wqe_bytes != 64:
            raise ConfigError("WQE format fixed at 64 bytes")
        if self.cqe_bytes != 32:
            raise ConfigError("CQE format fixed at 32 bytes")
        if self.processing_contexts < 1:
            raise ConfigError("need at least one processing context")
        for attr in ("doorbell_to_fetch", "wqe_execute_overhead", "ack_overhead"):
            if getattr(self, attr) < 0:
                raise ConfigError(f"{attr} must be non-negative")
        if min(self.max_qps, self.sq_entries, self.rq_entries,
               self.cq_entries) < 1:
            raise ConfigError("queue limits must be positive")
