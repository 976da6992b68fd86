"""Unit tests for resources, mutexes, and stores."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator, Store, join_result


def test_resource_serializes_beyond_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    spans = {}

    def worker(tag):
        yield res.acquire()
        start = sim.now
        yield sim.timeout(10.0)
        res.release()
        spans[tag] = (start, sim.now)

    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert spans["a"] == (0.0, 10.0)
    assert spans["b"] == (0.0, 10.0)
    assert spans["c"] == (10.0, 20.0)  # had to wait for a slot


def test_resource_fifo_grant_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    grants = []

    def worker(tag, arrive):
        yield sim.timeout(arrive)
        yield res.acquire()
        grants.append(tag)
        yield sim.timeout(5.0)
        res.release()

    sim.process(worker("first", 0.0))
    sim.process(worker("second", 1.0))
    sim.process(worker("third", 2.0))
    sim.run()
    assert grants == ["first", "second", "third"]


def test_release_without_acquire_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_capacity_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)

    def producer():
        yield store.put("item")

    def consumer():
        item = yield store.get()
        return item

    sim.process(producer())
    cons = sim.process(consumer())
    sim.run()
    assert join_result(cons) == "item"


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)

    def consumer():
        item = yield store.get()
        return (item, sim.now)

    def producer():
        yield sim.timeout(4.0)
        yield store.put("late")

    cons = sim.process(consumer())
    sim.process(producer())
    sim.run()
    assert join_result(cons) == ("late", 4.0)


def test_store_is_fifo():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_bounded_store_blocks_producer():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def producer():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")  # blocks until consumer drains one
        log.append(("put-b", sim.now))

    def consumer():
        yield sim.timeout(10.0)
        item = yield store.get()
        log.append(("got-" + item, sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put-a", 0.0) in log
    assert ("put-b", 10.0) in log


def test_store_len_tracks_buffered_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    store.get()
    assert len(store) == 1
