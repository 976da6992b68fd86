"""Series generators — one function per figure in the paper's evaluation.

Each function runs the corresponding experiment over the paper's parameter
grid and returns the labeled curves.  ``scale`` trades fidelity for run time
(1.0 = paper-sized grids; smaller values shrink sizes/iterations for CI).
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster import build_extoll_cluster, build_ib_cluster
from ..core import (
    ExtollMode,
    IbMode,
    RateMethod,
    Series,
    run_extoll_bandwidth,
    run_extoll_message_rate,
    run_extoll_pingpong,
    run_ib_bandwidth,
    run_ib_message_rate,
    run_ib_pingpong,
    setup_extoll_connection,
    setup_extoll_connections,
    setup_ib_connection,
    setup_ib_connections,
)
from ..node import NodeConfig
from ..gpu import GpuConfig
from ..units import KIB, MIB

# The paper's x-axes.
LATENCY_SIZES = [4, 16, 64, 256, 1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB]
BANDWIDTH_SIZES = [1, 4, 16, 64, 256, 1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB,
                   256 * KIB, 1 * MIB, 4 * MIB]
FIG3_SIZES = [4, 16, 64, 256, 1 * KIB, 4 * KIB, 16 * KIB, 64 * KIB, 256 * KIB,
              1 * MIB, 4 * MIB, 16 * MIB, 64 * MIB]
CONNECTION_COUNTS = [1, 2, 4, 8, 16, 24, 32]


def _sizes(sizes: List[int], scale: float) -> List[int]:
    if scale >= 1.0:
        return sizes
    keep = max(3, int(len(sizes) * scale))
    step = max(1, len(sizes) // keep)
    picked = sizes[::step]
    return picked if picked[-1] == sizes[-1] else picked + [sizes[-1]]


def _iters(base: int, size: int, scale: float) -> int:
    # Fewer iterations for huge messages: the transfer time dominates anyway.
    cap = max(2, int((4 * MIB) / max(size, 1)))
    return max(2, min(int(base * scale) or base, cap, base))


def _big_gpu_node() -> NodeConfig:
    """Fig. 3 goes to 64 MiB payloads: two 160 MiB buffers per GPU."""
    return NodeConfig(gpu=GpuConfig(dram_bytes=384 * MIB))


# --- Fig. 1a: EXTOLL latency ---------------------------------------------------

def fig1a_extoll_latency(scale: float = 1.0, iterations: int = 20,
                         sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(LATENCY_SIZES, scale)
    out = []
    for mode in (ExtollMode.DIRECT, ExtollMode.POLL_ON_GPU,
                 ExtollMode.ASSISTED, ExtollMode.HOST_CONTROLLED):
        series = Series(mode.value)
        for size in sizes:
            cluster = build_extoll_cluster()
            conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
            series.points.append(run_extoll_pingpong(
                cluster, conn, mode, size,
                iterations=_iters(iterations, size, scale), warmup=2))
        out.append(series)
    return out


# --- Fig. 1b: EXTOLL bandwidth --------------------------------------------------

def fig1b_extoll_bandwidth(scale: float = 1.0,
                           sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(BANDWIDTH_SIZES, scale)
    out = []
    for mode in (ExtollMode.DIRECT, ExtollMode.ASSISTED,
                 ExtollMode.HOST_CONTROLLED):
        series = Series(mode.value)
        for size in sizes:
            cluster = build_extoll_cluster()
            conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
            count = max(6, min(32, int((6 * MIB) * max(scale, 0.3)) // max(size, 1)))
            series.points.append(run_extoll_bandwidth(cluster, conn, mode,
                                                      size, count=count))
        out.append(series)
    return out


# --- Fig. 2: EXTOLL message rate ---------------------------------------------------

def fig2_extoll_message_rate(scale: float = 1.0,
                             connection_counts: Optional[List[int]] = None,
                             per_connection: int = 100) -> List[Series]:
    counts = connection_counts or CONNECTION_COUNTS
    per_connection = max(20, int(per_connection * scale))
    out = []
    for method in (RateMethod.BLOCKS, RateMethod.KERNELS, RateMethod.ASSISTED,
                   RateMethod.HOST_CONTROLLED):
        series = Series(method.value)
        for n in counts:
            cluster = build_extoll_cluster()
            conns = setup_extoll_connections(cluster, 4 * KIB, n)
            series.points.append(run_extoll_message_rate(
                cluster, conns, method, per_connection=per_connection))
        out.append(series)
    return out


# --- Fig. 3: put time vs polling time ------------------------------------------------

def fig3_polling_ratio(scale: float = 1.0, iterations: int = 10,
                       sizes: Optional[List[int]] = None) -> List[Series]:
    """Polling-time / WR-generation-time per message size for the two EXTOLL
    polling approaches (§V-A3).  At small sizes system-memory polling costs
    ~10x the posting time; at large sizes the data transfer dominates both."""
    sizes = sizes or _sizes(FIG3_SIZES, scale)
    node_config = _big_gpu_node()
    out = []
    for mode, label in ((ExtollMode.DIRECT, "system memory"),
                        (ExtollMode.POLL_ON_GPU, "device memory")):
        series = Series(label)
        for size in sizes:
            cluster = build_extoll_cluster(node_config)
            conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
            series.points.append(run_extoll_pingpong(
                cluster, conn, mode, size,
                iterations=_iters(iterations, size, scale), warmup=1))
        out.append(series)
    return out


# --- Fig. 4a: InfiniBand latency ----------------------------------------------------

def fig4a_ib_latency(scale: float = 1.0, iterations: int = 20,
                     sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(LATENCY_SIZES, scale)
    out = []
    for mode in (IbMode.BUF_ON_GPU, IbMode.BUF_ON_HOST, IbMode.ASSISTED,
                 IbMode.HOST_CONTROLLED):
        series = Series(mode.value)
        for size in sizes:
            cluster = build_ib_cluster()
            conn = setup_ib_connection(cluster, max(size, 4 * KIB),
                                       buffer_location=mode.ring_location)
            series.points.append(run_ib_pingpong(
                cluster, conn, mode, size,
                iterations=_iters(iterations, size, scale), warmup=2))
        out.append(series)
    return out


# --- Fig. 4b: InfiniBand bandwidth ---------------------------------------------------

def fig4b_ib_bandwidth(scale: float = 1.0,
                       sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(BANDWIDTH_SIZES, scale)
    out = []
    for mode in (IbMode.BUF_ON_GPU, IbMode.BUF_ON_HOST, IbMode.ASSISTED,
                 IbMode.HOST_CONTROLLED):
        series = Series(mode.value)
        for size in sizes:
            cluster = build_ib_cluster()
            conn = setup_ib_connection(cluster, max(size, 4 * KIB),
                                       buffer_location=mode.ring_location)
            count = max(6, min(32, int((6 * MIB) * max(scale, 0.3)) // max(size, 1)))
            series.points.append(run_ib_bandwidth(cluster, conn, mode, size,
                                                  count=count))
        out.append(series)
    return out


# --- Fig. 5: InfiniBand message rate ---------------------------------------------------

def fig5_ib_message_rate(scale: float = 1.0,
                         connection_counts: Optional[List[int]] = None,
                         per_connection: int = 100) -> List[Series]:
    counts = connection_counts or CONNECTION_COUNTS
    per_connection = max(20, int(per_connection * scale))
    out = []
    for method in (RateMethod.BLOCKS, RateMethod.KERNELS, RateMethod.ASSISTED,
                   RateMethod.HOST_CONTROLLED):
        location = "gpu" if method in (RateMethod.BLOCKS, RateMethod.KERNELS) \
            else "host"
        series = Series(method.value)
        for n in counts:
            cluster = build_ib_cluster()
            conns = setup_ib_connections(cluster, 4 * KIB, n,
                                         buffer_location=location)
            series.points.append(run_ib_message_rate(
                cluster, conns, method, per_connection=per_connection))
        out.append(series)
    return out
