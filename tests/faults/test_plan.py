"""FaultPlan / LinkFaults: validation, lookup, seeded stream derivation."""

import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, LinkFaults


def test_default_config_is_null():
    assert LinkFaults().is_null
    assert FaultPlan.none().is_null
    assert FaultPlan.uniform().is_null


def test_any_fault_clears_is_null():
    assert not LinkFaults(loss=0.1).is_null
    assert not LinkFaults(corrupt=0.1).is_null


@pytest.mark.parametrize("kwargs", [
    {"loss": -0.1},
    {"loss": 1.5},
    {"corrupt": 2.0},
    {"corrupt": -1e-12},
    {"loss": 1.0 + 1e-12},
    {"loss": float("nan")},
    {"corrupt": float("nan")},
    {"loss": float("inf")},
    {"corrupt": float("-inf")},
    {"loss": 0.5, "corrupt": 1.5},            # one bad field is enough
])
def test_bad_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        LinkFaults(**kwargs)


def test_per_link_overrides_with_unordered_keys():
    lossy = LinkFaults(loss=0.5)
    plan = FaultPlan.for_links({(3, 1): lossy})
    assert plan.for_link(1, 3) is lossy
    assert plan.for_link(3, 1) is lossy
    assert plan.for_link(0, 1).is_null
    assert not plan.is_null


def test_uniform_applies_everywhere():
    plan = FaultPlan.uniform(loss=0.25, corrupt=0.125, seed=9)
    assert plan.for_link(0, 1).loss == 0.25
    assert plan.for_link(5, 7).corrupt == 0.125
    assert plan.seed == 9


def test_link_streams_are_deterministic_and_distinct():
    plan = FaultPlan.uniform(loss=0.1, seed=4)
    a1 = [plan.link_rng(1, "link0-1").random() for _ in range(8)]
    a2 = [plan.link_rng(1, "link0-1").random() for _ in range(8)]
    b = [plan.link_rng(1, "link1-2").random() for _ in range(8)]
    assert a1 == a2                       # same (sim seed, plan seed, link)
    assert a1 != b                        # different links diverge
    # Different plan seed and different sim seed each change the stream.
    assert plan.link_seed(1, "l") != plan.link_seed(2, "l")
    assert (FaultPlan.uniform(loss=0.1, seed=5).link_seed(1, "l")
            != plan.link_seed(1, "l"))


def test_plan_is_hashable_pure_data():
    plan = FaultPlan.for_links({(0, 1): LinkFaults(loss=0.5)}, seed=2)
    assert hash(plan) == hash(FaultPlan.for_links(
        {(1, 0): LinkFaults(loss=0.5)}, seed=2))
