"""The paper's proposed future put/get interface (§VI), implemented.

The discussion closes with three claims for future GPU networking APIs:

1. **small footprint** — notification structures must be small because GPU
   memory is scarce *and* they are inevitable,
2. **thread-collaborative interfaces** — posting must match the GPU's
   execution model instead of a single-thread scalar store sequence,
3. **minimal PCIe control traffic** — both WR generation and the
   notification queues the NIC updates must stay off the PCIe hot path.

This module builds that API on the EXTOLL substrate:

* :func:`gpu_rma_post_wide` posts the 192-bit descriptor as ONE
  warp-coalesced store (claim 2) instead of three dependent scalar stores,
* ``setup_extoll_connection(..., notification_location="gpu")`` opens
  ports whose notification queues live in **GPU device memory** (claims 1
  and 3): the NIC DMA-writes the 16-byte records over PCIe once, and the
  polling loop runs entirely out of the L2,
* :func:`run_future_extoll_pingpong` is the dev2dev-direct program on the
  new interface, so the gain is measured under identical semantics
  (explicit requester/completer notifications, no last-element trick).
"""

from __future__ import annotations

from ..cluster import Cluster
from ..extoll import RmaWorkRequest
from ..gpu import ThreadCtx
from .drive import run_measured
from .gpu_rma import POST_ASSEMBLE_COST
from .pingpong import _PingTiming, _validate, notified_pingpong
from .results import LatencyPoint
from .setup import ExtollConnection

# A warp assembles descriptor words in parallel: the packing work divides
# across lanes instead of serializing on one thread.
WIDE_POST_ASSEMBLE_COST = max(6, POST_ASSEMBLE_COST // 3)


def gpu_rma_post_wide(ctx: ThreadCtx, page_addr: int, wr: RmaWorkRequest):
    """Post a put/get descriptor as one coalesced 24-byte store (§VI claim
    2).  Returns the simulated time spent."""
    start = ctx.sim.now
    yield from ctx.alu(WIDE_POST_ASSEMBLE_COST)
    yield from ctx.store_wide(page_addr, wr.encode())
    return ctx.sim.now - start


def _wide_put(ctx, end, wr: RmaWorkRequest):
    return gpu_rma_post_wide(ctx, end.port.page_addr, wr)


def run_future_extoll_pingpong(cluster: Cluster, conn: ExtollConnection,
                               size: int, iterations: int = 30,
                               warmup: int = 3) -> LatencyPoint:
    """dev2dev-direct semantics on the future interface: wide posting plus
    notification polling that hits in the L2."""
    _validate(conn, size, iterations, warmup)
    timing = _PingTiming()
    handles = notified_pingpong(conn, size, iterations + warmup, warmup,
                                timing, _wide_put)
    run_measured(cluster, handles, "pingpong:future", size=size,
                 iterations=iterations, warmup=warmup)
    return timing.point(size, iterations)
