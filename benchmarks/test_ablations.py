"""Experiment abl-* — ablations of the design choices §VI calls out.

Each test toggles one mechanism and checks the direction and rough size of
the effect, substantiating the paper's claims for future put/get APIs.
"""

import pytest

from repro.analysis import (
    ablate_asic_nic,
    ablate_connection_sharing,
    ablate_endianness_conversion,
    ablate_future_interface,
    ablate_notification_placement,
    ablate_p2p_pathology,
)

pytestmark = [pytest.mark.quick]


@pytest.fixture(scope="module")
def notification_placement():
    return ablate_notification_placement(iterations=15)


@pytest.fixture(scope="module")
def endianness():
    return ablate_endianness_conversion(iterations=15)


@pytest.fixture(scope="module")
def p2p():
    return ablate_p2p_pathology()


@pytest.fixture(scope="module")
def sharing():
    return ablate_connection_sharing(connections=8, per_connection=50)


def test_abl_notification_placement(benchmark, notification_placement):
    """Moving the completion signal from host to device memory cuts latency
    (§VI claim 3: control traffic over PCIe must be minimized)."""
    r = benchmark.pedantic(lambda: notification_placement, rounds=1, iterations=1)
    benchmark.extra_info["direct_latency_s"] = r.baseline
    benchmark.extra_info["poll_on_gpu_latency_s"] = r.variant
    assert r.improvement > 1.15


def test_abl_endianness_conversion(benchmark, endianness):
    """Static pre-conversion of constant WQE fields reduces both the
    instruction count and the posting latency."""
    r = benchmark.pedantic(lambda: endianness, rounds=1, iterations=1)
    benchmark.extra_info.update({k: v for k, v in r.items()})
    assert r["optimized_instructions"] < r["full_conversion_instructions"]
    assert r["optimized_latency"] < r["full_conversion_latency"]


def test_abl_p2p_pathology(benchmark, p2p):
    """Disabling the P2P read degradation removes the >1 MiB bandwidth drop
    (the effect behind the tails of Figs. 1b and 4b)."""
    r = benchmark.pedantic(lambda: p2p, rounds=1, iterations=1)
    benchmark.extra_info["with_pathology_mb_s"] = r.baseline
    benchmark.extra_info["without_pathology_mb_s"] = r.variant
    assert r.variant > r.baseline * 1.2


def test_abl_connection_sharing(benchmark, sharing):
    """Private per-block connections beat funneling through a single proxy
    (§VI claim 2: interfaces must be thread-collaborative)."""
    r = benchmark.pedantic(lambda: sharing, rounds=1, iterations=1)
    benchmark.extra_info["shared_proxy_msgs_s"] = r.baseline
    benchmark.extra_info["private_connections_msgs_s"] = r.variant
    assert r.variant > r.baseline * 1.3


def test_abl_future_interface(benchmark):
    """Implementing all three §VI claims (wide posting + device-resident
    notification queues) recovers a large share of the GPU-vs-CPU gap."""
    r = benchmark.pedantic(lambda: ablate_future_interface(iterations=15),
                           rounds=1, iterations=1)
    benchmark.extra_info["direct_latency_s"] = r.baseline
    benchmark.extra_info["future_latency_s"] = r.variant
    assert r.improvement > 1.25


def test_abl_asic_nic(benchmark):
    """'We expect future ASIC implementations to improve performance
    significantly' (§V): 700 MHz / 128-bit vs the 157 MHz FPGA."""
    r = benchmark.pedantic(lambda: ablate_asic_nic(iterations=10),
                           rounds=1, iterations=1)
    benchmark.extra_info["fpga_latency_s"] = r.baseline
    benchmark.extra_info["asic_latency_s"] = r.variant
    assert r.improvement > 1.2
