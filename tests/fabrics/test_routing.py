"""Routing properties: reachability, deadlock freedom, determinism.

Hypothesis drives the sampled cases; every run goes through the real
simulated fabric (policy routers forwarding packets hop by hop), not a
graph-theoretic shortcut.
"""

from hypothesis import given, settings, strategies as st

from repro.fabrics import build_topology, instantiate, run_permutation
from repro.fabrics.collective import FabricHost
from repro.fabrics.routing import ROUTINGS
from repro.fabrics.topology import TOPOLOGY_KINDS, FabricConfig
from repro.sim import Simulator

_SIZES = {"fat-tree": (8, 16), "dragonfly": (16, 32), "torus": (8, 16, 32)}


def _deliver(kind, n, pairs, routing="minimal", credits=None):
    """Send one message per (src, dst) pair; return the payloads each
    destination pulled out.  A repeated pair matches in send order."""
    sim = Simulator(seed=3)
    inst = instantiate(sim, build_topology(kind, n),
                       FabricConfig(credits=credits), routing=routing)
    hosts = [FabricHost(inst, r) for r in range(n)]
    got = {}

    def send(src, dst, i):
        yield from hosts[src].send(dst, bytes([src, dst, i]) * 16)

    def recv(src, dst, i):
        payload = yield from hosts[dst].recv(src)
        got[(src, dst, i)] = payload

    procs = []
    for i, (src, dst) in enumerate(pairs):
        procs.append(sim.process(send(src, dst, i)))
        procs.append(sim.process(recv(src, dst, i)))
    sim.run_until_complete(*procs, limit=sim.now + 10.0)
    return got


@given(data=st.data())
@settings(max_examples=12, deadline=None)
def test_all_pairs_reachability(data):
    """Any (src, dst) pair on any topology delivers, payload intact."""
    kind = data.draw(st.sampled_from(TOPOLOGY_KINDS))
    n = data.draw(st.sampled_from(_SIZES[kind]))
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=6).filter(
            lambda ps: all(s != d for s, d in ps)))
    got = _deliver(kind, n, pairs)
    assert len(got) == len(pairs)
    for i, (src, dst) in enumerate(pairs):
        assert got[(src, dst, i)] == bytes([src, dst, i]) * 16


@given(n=st.sampled_from((8, 16, 32)), seed=st.integers(0, 7),
       credits=st.sampled_from((1, 2)))
@settings(max_examples=10, deadline=None)
def test_torus_dor_deadlock_freedom(n, seed, credits):
    """Dimension-order routing on a torus never deadlocks, even at one
    credit per VC: the dateline VC flip breaks the ring cycle."""
    sim = Simulator(seed=1)
    inst = instantiate(sim, build_topology("torus", n),
                       FabricConfig(credits=credits), routing="dor")
    result = run_permutation(inst, messages=3, payload=128, seed=seed)
    assert result.completed and not result.deadlocked


@given(routing=st.sampled_from(("ugal", "valiant", "minimal")),
       seed=st.integers(0, 5))
@settings(max_examples=10, deadline=None)
def test_adaptive_routes_are_deterministic(routing, seed):
    """Two fresh runs of the same adaptive-routing workload make the
    identical sequence of routing decisions (bit-identical replay)."""

    def paths():
        sim = Simulator(seed=5)
        inst = instantiate(sim, build_topology("dragonfly", 32),
                           FabricConfig(credits=4), routing=routing)
        result = run_permutation(inst, messages=3, payload=128, seed=seed)
        assert result.completed
        return (result.time, result.stalls,
                sorted(inst.link_packets().items()))

    assert paths() == paths()


def test_default_policies_match_their_topologies():
    from repro.fabrics.routing import (DimensionOrderPolicy, DragonflyPolicy,
                                       UpDownPolicy, default_policy)
    assert set(ROUTINGS) == {"minimal", "valiant", "ugal"}
    assert isinstance(default_policy(build_topology("torus", 16), "minimal"),
                      DimensionOrderPolicy)
    assert isinstance(default_policy(build_topology("fat-tree", 16),
                                     "minimal"), UpDownPolicy)
    assert isinstance(default_policy(build_topology("dragonfly", 32),
                                     "ugal"), DragonflyPolicy)
