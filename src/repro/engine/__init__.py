"""The GPU communication offload engine.

Sits between the benchmark drivers and the raw ``extoll`` device
APIs and recovers the efficiency the paper's one-thread-one-doorbell model
leaves on the table, with three independently switchable optimizations:

* **Warp-parallel WQE generation** (:mod:`repro.engine.wqe_gen`) — the
  descriptor-assembly ALU work divides across the warp's lanes and the
  finished bytes leave as wide stores.
* **Doorbell coalescing + aggregation** (:mod:`repro.engine.batch`) — N
  descriptors, one batched doorbell (one PCIe control TLP); runs of small
  messages optionally merge into one put.
* **Multi-connection scheduling** (:mod:`repro.engine.scheduler`,
  :mod:`repro.engine.engine`) — one persistent proxy block services M
  connections (round-robin or priority) with spin-then-yield adaptive
  polling backoff, replacing one-block-per-connection.

``python -m repro engine`` sweeps baseline vs each optimization vs all-on
and checks the acceptance invariants against the span trace.
"""

from .batch import Aggregate, Aggregator, DoorbellBatcher, Flush, \
    FlushPolicy, batched_mmio_floor
from .engine import (
    PINGPONG_CONFIGS,
    EngineConfig,
    EngineStats,
    aggregate_schedule,
    run_engine_message_rate,
    run_engine_pingpong,
)
from .scheduler import POLICIES, AdaptiveBackoff, Scheduler
from .wqe_gen import (
    BATCH_DOORBELL_COST,
    DEFAULT_LANES,
    engine_post_batch,
    engine_rma_post,
    engine_ring_batch_doorbell,
    engine_stage_batch,
)

__all__ = [
    "Aggregate",
    "Aggregator",
    "DoorbellBatcher",
    "Flush",
    "FlushPolicy",
    "PINGPONG_CONFIGS",
    "EngineConfig",
    "EngineStats",
    "aggregate_schedule",
    "batched_mmio_floor",
    "run_engine_message_rate",
    "run_engine_pingpong",
    "POLICIES",
    "AdaptiveBackoff",
    "Scheduler",
    "BATCH_DOORBELL_COST",
    "DEFAULT_LANES",
    "engine_post_batch",
    "engine_rma_post",
    "engine_ring_batch_doorbell",
    "engine_stage_batch",
]
