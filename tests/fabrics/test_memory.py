"""What an idle fabric costs: the queues of a built fabric hold nothing, so
they must cost next to nothing.

A 64-host torus with credit flow control builds 192 links: 448 inbox
stores (two per link, one per router), a ``Resource`` per link direction
and a credit waiter queue per link direction.  Backed by
``collections.deque``, each empty queue preallocated a 760 B block and
the build allocated 3.0 MiB; backed by lists it allocates 1.0 MiB.
"""

import tracemalloc

from repro.fabrics import build_topology, instantiate
from repro.fabrics.topology import FabricConfig
from repro.sim import Simulator

#: Python heap a 64-host torus build may allocate at its peak.
BOUND_MIB = 1.5


def test_idle_queues_cost_what_they_hold():
    topo = build_topology("torus", 64)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        inst = instantiate(Simulator(), topo, FabricConfig(credits=4))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert len(inst.net.links()) == 192
    assert peak < BOUND_MIB * 2**20, f"{peak / 2**20:.2f} MiB"
