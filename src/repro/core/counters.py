"""Performance-counter analysis programs (Tables I and II, §V-A3/§V-B3).

Both tables instrument the *ping-side GPU* over a 100-iteration, 1 KiB
ping-pong and compare two variants:

* Table I (EXTOLL): polling notifications in **system memory**
  (``dev2dev-direct``) vs polling the last received element in **device
  memory** (``dev2dev-pollOnGPU``),
* Table II (InfiniBand): WQ/CQ buffers in **host memory** vs **GPU memory**.

Counters are read as snapshots around the measured region, exactly like
wrapping the kernel in a profiler session.
"""

from __future__ import annotations

from typing import Tuple

from ..cluster import build_extoll_cluster, build_ib_cluster
from ..units import KIB
from .modes import ExtollMode, IbMode
from .pingpong import run_extoll_pingpong, run_ib_pingpong
from .results import CounterReport
from .setup import setup_extoll_connection, setup_ib_connection

TABLE_ITERATIONS = 100
TABLE_PAYLOAD = 1 * KIB


def measure_extoll_polling_counters(
        iterations: int = TABLE_ITERATIONS,
        payload: int = TABLE_PAYLOAD) -> Tuple[CounterReport, CounterReport]:
    """Table I: (system-memory polling, device-memory polling) reports."""
    reports = []
    for mode, label in ((ExtollMode.DIRECT, "system memory"),
                        (ExtollMode.POLL_ON_GPU, "device memory")):
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, max(payload, 4 * KIB))
        gpu = conn.a.node.gpu
        before = gpu.counters.snapshot()
        run_extoll_pingpong(cluster, conn, mode, payload,
                            iterations=iterations, warmup=0)
        reports.append(CounterReport(label, iterations,
                                     gpu.counters.diff(before)))
    return tuple(reports)


def measure_ib_buffer_counters(
        iterations: int = TABLE_ITERATIONS,
        payload: int = TABLE_PAYLOAD) -> Tuple[CounterReport, CounterReport]:
    """Table II: (buffer on host, buffer on GPU) reports."""
    reports = []
    for mode, label in ((IbMode.BUF_ON_HOST, "Buffer on Host"),
                        (IbMode.BUF_ON_GPU, "Buffer on GPU")):
        cluster = build_ib_cluster()
        conn = setup_ib_connection(cluster, max(payload, 4 * KIB),
                                   buffer_location=mode.ring_location)
        gpu = conn.a.node.gpu
        before = gpu.counters.snapshot()
        run_ib_pingpong(cluster, conn, mode, payload,
                        iterations=iterations, warmup=0)
        reports.append(CounterReport(label, iterations,
                                     gpu.counters.diff(before)))
    return tuple(reports)


def measure_single_op_instructions() -> dict:
    """§V-B3 single-operation costs, measured by executing exactly one op on
    an otherwise idle GPU: instructions for one ``ibv_post_send`` and one
    successful ``ibv_poll_cq``, plus the EXTOLL posting cost for contrast."""
    from ..extoll import NotifyFlags
    from .drive import extoll_put, gpu_put, ib_write_wqe
    from .gpu_verbs import gpu_post_send, gpu_wait_cq

    out = {}

    # --- EXTOLL post -----------------------------------------------------------
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB)
    gpu = conn.a.node.gpu
    wr = extoll_put(conn.a, conn.b, 64, NotifyFlags.NONE)

    def extoll_post(ctx):
        yield from gpu_put(ctx, conn.a, wr)

    before = gpu.counters.snapshot()
    h = gpu.launch(extoll_post)
    cluster.sim.run_until_complete(h, limit=1.0)
    cluster.sim.run(until=cluster.sim.now + 1e-3)
    out["extoll_post"] = gpu.counters.diff(before).instructions_executed

    # --- IB post + poll ---------------------------------------------------------
    cluster = build_ib_cluster()
    conn = setup_ib_connection(cluster, 4 * KIB, buffer_location="gpu")
    gpu = conn.a.node.gpu
    wqe = ib_write_wqe(conn.a, 64, wr_id=1)

    marks = {}

    def ib_post_then_poll(ctx):
        before_post = ctx.gpu.counters.snapshot()
        yield from gpu_post_send(ctx, conn.a.node.nic, conn.a.qp, wqe, 0,
                                 optimized=False)
        marks["post"] = ctx.gpu.counters.diff(before_post).instructions_executed
        # Let the completion arrive so the first poll succeeds.
        yield ctx.sim.timeout(100e-6)
        before_poll = ctx.gpu.counters.snapshot()
        yield from gpu_wait_cq(ctx, conn.a.send_cq_consumer())
        marks["poll"] = ctx.gpu.counters.diff(before_poll).instructions_executed

    h = gpu.launch(ib_post_then_poll)
    cluster.sim.run_until_complete(h, limit=1.0)
    out["ibv_post_send"] = marks["post"]
    out["ibv_poll_cq"] = marks["poll"]
    return out
