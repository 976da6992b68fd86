"""Tests for the analysis layer: figure/table generators and ablations.

These run tiny grids — full paper-sized grids are exercised by the
benchmark suite.
"""

import pytest

from repro.analysis import (
    ablate_notification_placement,
    ablate_p2p_pathology,
    fig1a_extoll_latency,
    fig2_extoll_message_rate,
    fig4a_ib_latency,
    single_op_costs,
    table1_extoll_polling,
)
from repro.analysis.figures import _iters, _sizes
from repro.core import IbMode
from repro.perf.scenarios import SCENARIOS
from repro.units import KIB


def test_sizes_helper_scales_grid():
    sizes = [1, 2, 4, 8, 16, 32, 64, 128]
    small = _sizes(sizes, 0.4)
    assert len(small) < len(sizes)
    assert small[-1] == 128  # largest point always kept
    assert _sizes(sizes, 1.0) == sizes


def test_iters_helper_caps_large_messages():
    assert _iters(20, 64, 1.0) == 20
    assert _iters(20, 64 * 1024 * 1024, 1.0) == 2


def test_fig1a_generator_produces_four_series():
    series = fig1a_extoll_latency(sizes=[64, 1 * KIB], iterations=4)
    assert len(series) == 4
    labels = {s.label for s in series}
    assert labels == {"dev2dev-direct", "dev2dev-pollOnGPU",
                      "dev2dev-assisted", "dev2dev-hostControlled"}
    for s in series:
        assert [p.size for p in s.points] == [64, 1 * KIB]
        assert all(p.latency > 0 for p in s.points)


def test_fig2_generator_counts_and_rates():
    series = fig2_extoll_message_rate(connection_counts=[1, 2],
                                      per_connection=20)
    assert len(series) == 4
    for s in series:
        assert [p.connections for p in s.points] == [1, 2]
        assert all(p.messages_per_s > 0 for p in s.points)


def test_fig4a_generator_uses_right_buffer_locations():
    series = fig4a_ib_latency(sizes=[64], iterations=4)
    assert {s.label for s in series} == {
        "dev2dev-bufOnGPU", "dev2dev-bufOnHost", "dev2dev-assisted",
        "dev2dev-hostControlled"}


@pytest.fixture(scope="module")
def ib_latency_64b():
    """The ``ib-latency`` bench scenario, and Fig. 4a at its 64 B point."""
    scenario = SCENARIOS["ib-latency"].run()
    fig = {s.label: s.points[0]
           for s in fig4a_ib_latency(sizes=[64], iterations=10)}
    return scenario, fig


@pytest.mark.parametrize("mode", list(IbMode), ids=lambda m: m.value)
def test_ib_latency_scenario_matches_fig4a(ib_latency_64b, mode):
    """BENCH_IB_LATENCY.json's "Fig. 4a slice" places each mode's rings
    where Fig. 4a does, so their 64 B points are the same run."""
    scenario, fig = ib_latency_64b
    metric = scenario.metrics[f"{mode.value}/64B/latency_us"]
    assert metric.value == fig[mode.value].latency_us


def test_table1_driver_small():
    sysmem, devmem = table1_extoll_polling(iterations=10)
    assert sysmem.counters.sysmem_read_transactions > 0
    assert devmem.counters.sysmem_read_transactions == 0


def test_single_op_costs_keys():
    ops = single_op_costs()
    assert set(ops) == {"extoll_post", "ibv_post_send", "ibv_poll_cq"}


def test_ablation_notification_placement_direction():
    r = ablate_notification_placement(iterations=6)
    assert r.baseline > r.variant  # pollOnGPU is faster
    assert r.improvement > 1.0


def test_ablation_p2p_direction():
    r = ablate_p2p_pathology()
    assert r.variant > r.baseline  # disabling the pathology raises bandwidth
