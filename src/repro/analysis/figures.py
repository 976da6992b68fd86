"""Series generators — one function per figure in the paper's evaluation.

Each function runs the corresponding experiment over the paper's parameter
grid and returns the labeled curves.  ``scale`` trades fidelity for run time
(1.0 = paper-sized grids; smaller values shrink sizes/iterations for CI).
"""

from __future__ import annotations

from typing import List, Optional

from ..core import (
    ExtollMode,
    IbMode,
    RateMethod,
    Series,
    measure_bandwidth,
    measure_message_rate,
    measure_pingpong,
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


def _latency_series(label: str, mode, sizes: List[int], iterations: int,
                    scale: float, warmup: int,
                    node_config: Optional[NodeConfig] = None) -> Series:
    return Series(label, [measure_pingpong(
        mode, size, _iters(iterations, size, scale), warmup,
        node_config=node_config) for size in sizes])


def _bandwidth_series(mode, sizes: List[int], scale: float) -> Series:
    def count(size: int) -> int:
        return max(6, min(32, int((6 * MIB) * max(scale, 0.3))
                          // max(size, 1)))
    return Series(mode.value, [measure_bandwidth(mode, size, count(size))
                               for size in sizes])


#: The paper's four message-rate methods (Figs. 2 and 5).
RATE_METHODS = (RateMethod.BLOCKS, RateMethod.KERNELS, RateMethod.ASSISTED,
                RateMethod.HOST_CONTROLLED)


def _rate_series(fabric: str, scale: float,
                 connection_counts: Optional[List[int]],
                 per_connection: int) -> List[Series]:
    counts = connection_counts or CONNECTION_COUNTS
    per_connection = max(20, int(per_connection * scale))
    return [Series(method.value, [measure_message_rate(
        method, n, per_connection, fabric) for n in counts])
        for method in RATE_METHODS]


# --- Fig. 1a: EXTOLL latency ---------------------------------------------------

def fig1a_extoll_latency(scale: float = 1.0, iterations: int = 20,
                         sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(LATENCY_SIZES, scale)
    return [_latency_series(mode.value, mode, sizes, iterations, scale,
                            warmup=2)
            for mode in ExtollMode]


# --- Fig. 1b: EXTOLL bandwidth --------------------------------------------------

def fig1b_extoll_bandwidth(scale: float = 1.0,
                           sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(BANDWIDTH_SIZES, scale)
    return [_bandwidth_series(mode, sizes, scale)
            for mode in (ExtollMode.DIRECT, ExtollMode.ASSISTED,
                         ExtollMode.HOST_CONTROLLED)]


# --- Fig. 2: EXTOLL message rate ---------------------------------------------------

def fig2_extoll_message_rate(scale: float = 1.0,
                             connection_counts: Optional[List[int]] = None,
                             per_connection: int = 100) -> List[Series]:
    return _rate_series("extoll", scale, connection_counts, per_connection)


# --- Fig. 3: put time vs polling time ------------------------------------------------

def fig3_polling_ratio(scale: float = 1.0, iterations: int = 10,
                       sizes: Optional[List[int]] = None) -> List[Series]:
    """Polling-time / WR-generation-time per message size for the two EXTOLL
    polling approaches (§V-A3).  At small sizes system-memory polling costs
    ~10x the posting time; at large sizes the data transfer dominates both."""
    sizes = sizes or _sizes(FIG3_SIZES, scale)
    node_config = _big_gpu_node()
    return [_latency_series(label, mode, sizes, iterations, scale, warmup=1,
                            node_config=node_config)
            for mode, label in ((ExtollMode.DIRECT, "system memory"),
                                (ExtollMode.POLL_ON_GPU, "device memory"))]


# --- Fig. 4a: InfiniBand latency ----------------------------------------------------

def fig4a_ib_latency(scale: float = 1.0, iterations: int = 20,
                     sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(LATENCY_SIZES, scale)
    return [_latency_series(mode.value, mode, sizes, iterations, scale,
                            warmup=2)
            for mode in IbMode]


# --- Fig. 4b: InfiniBand bandwidth ---------------------------------------------------

def fig4b_ib_bandwidth(scale: float = 1.0,
                       sizes: Optional[List[int]] = None) -> List[Series]:
    sizes = sizes or _sizes(BANDWIDTH_SIZES, scale)
    return [_bandwidth_series(mode, sizes, scale) for mode in IbMode]


# --- Fig. 5: InfiniBand message rate ---------------------------------------------------

def fig5_ib_message_rate(scale: float = 1.0,
                         connection_counts: Optional[List[int]] = None,
                         per_connection: int = 100) -> List[Series]:
    return _rate_series("ib", scale, connection_counts, per_connection)
