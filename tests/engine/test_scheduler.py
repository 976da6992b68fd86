"""Unit tests for the engine's service-order and backoff policies."""

import pytest

from repro.engine import POLICIES, AdaptiveBackoff, Scheduler
from repro.errors import ConfigError


@pytest.mark.quick
def test_round_robin_rotates_the_first_slot():
    sched = Scheduler(3)
    orders = [sched.service_order() for _ in range(3)]
    assert orders == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    assert sched.passes == 3
    # Over n_lanes passes every lane goes first exactly once.
    assert sorted(o[0] for o in orders) == [0, 1, 2]


def test_round_robin_is_a_permutation_every_pass():
    sched = Scheduler(5)
    for _ in range(11):
        assert sorted(sched.service_order()) == [0, 1, 2, 3, 4]


def test_priority_lane_always_served_first():
    sched = Scheduler(3, policy="priority", priorities=[0, 5, 0])
    orders = [sched.service_order() for _ in range(4)]
    assert all(o[0] == 1 for o in orders)
    # The equal-priority lanes still rotate among themselves.
    tails = [tuple(j for j in o if j != 1) for o in orders]
    assert set(tails) == {(0, 2), (2, 0)}


def test_priority_groups_sort_descending():
    sched = Scheduler(4, policy="priority", priorities=[1, 3, 2, 0])
    assert sched.service_order() == [1, 2, 0, 3]


@pytest.mark.parametrize("kwargs", [
    {"n_lanes": 0},
    {"n_lanes": 2, "policy": "weighted-fair"},
    {"n_lanes": 2, "priorities": [1, 2, 3]},
])
def test_scheduler_validation(kwargs):
    with pytest.raises(ConfigError):
        Scheduler(**kwargs)


def test_policies_tuple_is_the_public_contract():
    assert POLICIES == ("round-robin", "priority")


@pytest.mark.quick
def test_backoff_spins_then_doubles_to_the_cap():
    backoff = AdaptiveBackoff(spin_passes=2, base=1e-6, max_delay=4e-6)
    delays = [backoff.idle() for _ in range(6)]
    assert delays == [0.0, 0.0, 1e-6, 2e-6, 4e-6, 4e-6]
    assert backoff.yields == 4


def test_backoff_reset_restarts_the_spin_phase():
    backoff = AdaptiveBackoff(spin_passes=1, base=1e-6, max_delay=8e-6)
    assert [backoff.idle() for _ in range(3)] == [0.0, 1e-6, 2e-6]
    backoff.reset()
    assert backoff.idle() == 0.0
    assert backoff.idle() == 1e-6


def test_backoff_zero_spin_yields_immediately():
    backoff = AdaptiveBackoff(spin_passes=0, base=2e-6, max_delay=2e-6)
    assert backoff.idle() == 2e-6


@pytest.mark.parametrize("kwargs", [
    {"spin_passes": -1},
    {"base": 0.0},
    {"base": 2e-6, "max_delay": 1e-6},
])
def test_backoff_validation(kwargs):
    with pytest.raises(ConfigError):
        AdaptiveBackoff(**kwargs)
