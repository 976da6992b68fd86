"""Ablations of the design choices §VI calls out.

Each function toggles exactly one mechanism and reports the effect,
substantiating the paper's three claims for future put/get interfaces:
small footprint, thread-collaborative interfaces, minimal PCIe control
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict

from ..cluster import build_extoll_cluster, build_ib_cluster
from ..core import (
    ExtollMode,
    IbMode,
    RateMethod,
    measure_bandwidth,
    measure_message_rate,
    measure_pingpong,
    run_ib_pingpong,
    setup_extoll_connection,
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


def ablate_notification_placement(iterations: int = 20) -> AblationResult:
    """§VI claim 1/3: EXTOLL's kernel-pinned notification queues force PCIe
    polls.  Compare dev2dev-direct (notifications in host memory) against
    dev2dev-pollOnGPU (completion signal observed in device memory) — the
    closest realizable 'move the signal into GPU memory' variant, at
    1 KiB."""
    lat = {mode: measure_pingpong(mode, 1 * KIB, iterations).latency
           for mode in (ExtollMode.DIRECT, ExtollMode.POLL_ON_GPU)}
    return AblationResult(
        name="notification-placement",
        baseline=lat[ExtollMode.DIRECT],
        variant=lat[ExtollMode.POLL_ON_GPU],
        unit="s (half-RTT latency)",
        description="completion signal in host memory vs device memory",
    )


def ablate_endianness_conversion(iterations: int = 20) -> Dict[str, object]:
    """§V-B3: the paper pre-converts constant WQE fields to big-endian.
    Measure GPU post cost and 256-byte ping-pong latency with the full
    conversion vs the statically-optimized one."""
    results: Dict[str, object] = {
        "full_conversion_instructions": post_send_instruction_cost(),
        "optimized_instructions": post_send_instruction_cost_static_optimized(),
    }
    lat = {}
    for optimized in (False, True):
        cluster = build_ib_cluster()
        conn = setup_ib_connection(cluster, 4 * KIB,
                                   IbMode.BUF_ON_GPU.ring_location)
        point = run_ib_pingpong(
            cluster, conn, IbMode.BUF_ON_GPU, 256, iterations=iterations,
            post_send=partial(gpu_post_send, optimized=optimized))
        lat["optimized" if optimized else "full"] = point.latency
    results["full_conversion_latency"] = lat["full"]
    results["optimized_latency"] = lat["optimized"]
    return results


def ablate_p2p_pathology() -> AblationResult:
    """Figs. 1b/4b: the >1 MiB bandwidth drop comes from the PCIe peer-to-peer
    read pathology; disabling the model removes the drop (eight 4 MiB
    messages)."""
    bw = {}
    for enabled in (True, False):
        node = NodeConfig(pcie=FabricConfig(p2p_pathology_enabled=enabled))
        bw[enabled] = measure_bandwidth(ExtollMode.HOST_CONTROLLED, 4 * MIB,
                                        8, node_config=node).mb_per_s
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
    private = measure_message_rate(RateMethod.BLOCKS, connections,
                                   per_connection)
    shared = measure_message_rate(RateMethod.ASSISTED, connections,
                                  per_connection)
    return AblationResult(
        name="connection-sharing",
        baseline=shared.messages_per_s,
        variant=private.messages_per_s,
        unit="msgs/s",
        description=f"{connections} blocks through one proxy vs private connections",
    )


def ablate_future_interface(iterations: int = 20) -> AblationResult:
    """§VI wholesale: wide (thread-collaborative) posting + device-resident
    notification queues vs today's dev2dev-direct, same semantics, at
    256 bytes."""
    from ..core import run_future_extoll_pingpong

    today = measure_pingpong(ExtollMode.DIRECT, 256, iterations).latency
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, 4 * KIB,
                                   notification_location="gpu")
    future = run_future_extoll_pingpong(cluster, conn, 256,
                                        iterations=iterations).latency
    return AblationResult(
        name="future-interface",
        baseline=today,
        variant=future,
        unit="s (half-RTT latency)",
        description="today's scalar+host-queue API vs the §VI proposal",
    )


def ablate_asic_nic(iterations: int = 15) -> AblationResult:
    """§V: 'We expect future ASIC implementations to improve performance
    significantly' — swap the 157 MHz FPGA card for the projected ASIC
    (1 KiB ping-pong)."""
    from ..extoll import asic_config

    fpga = measure_pingpong(ExtollMode.HOST_CONTROLLED, 1 * KIB,
                            iterations).latency
    asic = measure_pingpong(ExtollMode.HOST_CONTROLLED, 1 * KIB, iterations,
                            nic_config=asic_config()).latency
    return AblationResult(
        name="asic-nic",
        baseline=fpga,
        variant=asic,
        unit="s (half-RTT latency)",
        description="FPGA Galibier vs projected 700 MHz/128-bit ASIC",
    )
