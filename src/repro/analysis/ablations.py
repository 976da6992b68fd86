"""Ablations of the design choices §VI calls out.

Each function toggles exactly one mechanism and reports the effect,
substantiating the paper's three claims for future put/get interfaces:
small footprint, thread-collaborative interfaces, minimal PCIe control
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List

from ..cluster import build_extoll_cluster, build_ib_cluster
from ..core import (
    ExtollMode,
    IbMode,
    RateMethod,
    run_extoll_bandwidth,
    run_extoll_pingpong,
    run_extoll_message_rate,
    run_ib_pingpong,
    setup_extoll_connection,
    setup_extoll_connections,
    setup_ib_connection,
)
from ..core.gpu_verbs import gpu_post_send
from ..ib.wqe import (
    post_send_instruction_cost,
    post_send_instruction_cost_static_optimized,
)
from ..node import NodeConfig
from ..pcie import FabricConfig
from ..units import KIB, MIB


@dataclass
class AblationResult:
    name: str
    baseline: float
    variant: float
    unit: str
    description: str

    @property
    def improvement(self) -> float:
        """baseline / variant (>1 means the variant is better/faster)."""
        return self.baseline / self.variant if self.variant else float("inf")


def ablate_notification_placement(size: int = 1 * KIB,
                                  iterations: int = 20) -> AblationResult:
    """§VI claim 1/3: EXTOLL's kernel-pinned notification queues force PCIe
    polls.  Compare dev2dev-direct (notifications in host memory) against
    dev2dev-pollOnGPU (completion signal observed in device memory) — the
    closest realizable 'move the signal into GPU memory' variant."""
    lat = {}
    for mode in (ExtollMode.DIRECT, ExtollMode.POLL_ON_GPU):
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
        lat[mode] = run_extoll_pingpong(cluster, conn, mode, size,
                                        iterations=iterations).latency
    return AblationResult(
        name="notification-placement",
        baseline=lat[ExtollMode.DIRECT],
        variant=lat[ExtollMode.POLL_ON_GPU],
        unit="s (half-RTT latency)",
        description="completion signal in host memory vs device memory",
    )


def ablate_endianness_conversion(size: int = 256,
                                 iterations: int = 20) -> Dict[str, object]:
    """§V-B3: the paper pre-converts constant WQE fields to big-endian.
    Measure GPU post cost and ping-pong latency with the full conversion
    vs the statically-optimized one."""
    results: Dict[str, object] = {
        "full_conversion_instructions": post_send_instruction_cost(),
        "optimized_instructions": post_send_instruction_cost_static_optimized(),
    }
    lat = {}
    for optimized in (False, True):
        cluster = build_ib_cluster()
        conn = setup_ib_connection(cluster, max(size, 4 * KIB),
                                   IbMode.BUF_ON_GPU.ring_location)
        point = run_ib_pingpong(
            cluster, conn, IbMode.BUF_ON_GPU, size, iterations=iterations,
            post_send=partial(gpu_post_send, optimized=optimized))
        lat["optimized" if optimized else "full"] = point.latency
    results["full_conversion_latency"] = lat["full"]
    results["optimized_latency"] = lat["optimized"]
    return results


def ablate_p2p_pathology(size: int = 4 * MIB, count: int = 8) -> AblationResult:
    """Figs. 1b/4b: the >1 MiB bandwidth drop comes from the PCIe peer-to-peer
    read pathology; disabling the model removes the drop."""
    bw = {}
    for enabled in (True, False):
        node_cfg = NodeConfig(pcie=FabricConfig(p2p_pathology_enabled=enabled))
        cluster = build_extoll_cluster(node_cfg)
        conn = setup_extoll_connection(cluster, size)
        bw[enabled] = run_extoll_bandwidth(
            cluster, conn, ExtollMode.HOST_CONTROLLED, size, count=count
        ).mb_per_s
    return AblationResult(
        name="p2p-read-pathology",
        baseline=bw[True],
        variant=bw[False],
        unit="MB/s at 4 MiB",
        description="P2P read degradation on vs off",
    )


def ablate_connection_sharing(connections: int = 8,
                              per_connection: int = 60) -> AblationResult:
    """§VI claim 2: single-thread interfaces serialize.  Compare N blocks on
    N private connections against N blocks funneled through ONE CPU proxy
    (the assisted mode — the sharing structure the paper shows flat-lining)."""
    cluster = build_extoll_cluster()
    conns = setup_extoll_connections(cluster, 4 * KIB, connections)
    private = run_extoll_message_rate(cluster, conns, RateMethod.BLOCKS,
                                      per_connection=per_connection)
    cluster2 = build_extoll_cluster()
    conns2 = setup_extoll_connections(cluster2, 4 * KIB, connections)
    shared = run_extoll_message_rate(cluster2, conns2, RateMethod.ASSISTED,
                                     per_connection=per_connection)
    return AblationResult(
        name="connection-sharing",
        baseline=shared.messages_per_s,
        variant=private.messages_per_s,
        unit="msgs/s",
        description=f"{connections} blocks through one proxy vs private connections",
    )


def ablate_future_interface(size: int = 256,
                            iterations: int = 20) -> AblationResult:
    """§VI wholesale: wide (thread-collaborative) posting + device-resident
    notification queues vs today's dev2dev-direct, same semantics."""
    from ..core import run_future_extoll_pingpong

    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
    today = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, size,
                                iterations=iterations).latency
    cluster2 = build_extoll_cluster()
    conn2 = setup_extoll_connection(cluster2, max(size, 4 * KIB),
                                    notification_location="gpu")
    future = run_future_extoll_pingpong(cluster2, conn2, size,
                                        iterations=iterations).latency
    return AblationResult(
        name="future-interface",
        baseline=today,
        variant=future,
        unit="s (half-RTT latency)",
        description="today's scalar+host-queue API vs the §VI proposal",
    )


def ablate_asic_nic(size: int = 1 * KIB, iterations: int = 15) -> AblationResult:
    """§V: 'We expect future ASIC implementations to improve performance
    significantly' — swap the 157 MHz FPGA card for the projected ASIC."""
    from ..extoll import asic_config

    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
    fpga = run_extoll_pingpong(cluster, conn, ExtollMode.HOST_CONTROLLED,
                               size, iterations=iterations).latency
    cluster2 = build_extoll_cluster(nic_config=asic_config())
    conn2 = setup_extoll_connection(cluster2, max(size, 4 * KIB))
    asic = run_extoll_pingpong(cluster2, conn2, ExtollMode.HOST_CONTROLLED,
                               size, iterations=iterations).latency
    return AblationResult(
        name="asic-nic",
        baseline=fpga,
        variant=asic,
        unit="s (half-RTT latency)",
        description="FPGA Galibier vs projected 700 MHz/128-bit ASIC",
    )


def run_all_ablations() -> List[object]:
    return [
        ablate_notification_placement(),
        ablate_endianness_conversion(),
        ablate_p2p_pathology(),
        ablate_connection_sharing(),
        ablate_future_interface(),
        ablate_asic_nic(),
    ]
