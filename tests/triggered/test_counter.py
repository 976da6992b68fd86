"""Unit tests for threshold counters and watches."""

import pytest

from repro.cluster import build_extoll_cluster
from repro.errors import TriggeredError
from repro.triggered import TriggeredUnit, triggered_unit


@pytest.fixture
def unit():
    cluster = build_extoll_cluster()
    return TriggeredUnit(cluster.a)


def test_counter_ids_are_sequential(unit):
    c0 = unit.counter("a")
    c1 = unit.counter("b")
    assert (c0.id, c1.id) == (0, 1)
    assert unit.counters[1] is c1
    assert c0.name == "a"


def test_watch_fires_at_threshold(unit):
    c = unit.counter()
    fired = []
    c.watch(3, lambda: fired.append(c.value))
    c.add()
    c.add()
    assert fired == []
    c.add()
    assert fired == [3]


def test_watch_fires_immediately_if_already_past(unit):
    c = unit.counter()
    c.add(5)
    fired = []
    w = c.watch(4, lambda: fired.append(True))
    assert fired == [True]
    assert w.fired


def test_watch_threshold_zero_fires_at_registration(unit):
    c = unit.counter()
    fired = []
    c.watch(0, lambda: fired.append(True))
    assert fired == [True]


def test_watches_fire_in_registration_order(unit):
    c = unit.counter()
    order = []
    c.watch(2, lambda: order.append("first"))
    c.watch(1, lambda: order.append("second"))
    c.add(2)
    assert order == ["first", "second"]


def test_watch_fires_once(unit):
    c = unit.counter()
    fired = []
    c.watch(1, lambda: fired.append(True))
    c.add()
    c.add()
    assert fired == [True]
    assert c.armed_watches == 0


def test_callback_may_arm_new_watch_on_same_counter(unit):
    """A firing watch arming a follow-up (chain DAG pattern) must not be
    swept in the same pass unless the value already satisfies it."""
    c = unit.counter()
    order = []

    def first():
        order.append("first")
        c.watch(2, lambda: order.append("second"))

    c.watch(1, first)
    c.add()
    assert order == ["first"]
    c.add()
    assert order == ["first", "second"]


def test_non_positive_amount_rejected(unit):
    c = unit.counter()
    with pytest.raises(TriggeredError):
        c.add(0)
    with pytest.raises(TriggeredError):
        c.add(-2)


def test_negative_threshold_rejected(unit):
    c = unit.counter()
    with pytest.raises(TriggeredError):
        c.watch(-1, lambda: None)


def test_ticks_counted(unit):
    c = unit.counter()
    c.add(7)
    c.add(1)
    assert c.value == 8
    assert c.ticks == 2
    assert unit.stats.counter_ticks == 2


def test_triggered_unit_helper_is_idempotent():
    cluster = build_extoll_cluster()
    u1 = triggered_unit(cluster.a)
    u2 = triggered_unit(cluster.a)
    assert u1 is u2
    with pytest.raises(TriggeredError):
        TriggeredUnit(cluster.a)  # direct double-attach still rejected
