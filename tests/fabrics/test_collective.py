"""Topology-aware collectives: numerics, closed forms, bit-exactness."""

import pytest

from repro.collectives.algorithms import REDUCE_OPS
from repro.fabrics import build_topology, instantiate, run_collective
from repro.fabrics.collective import (ALGORITHMS, expected_phases,
                                      expected_steps)
from repro.fabrics.topology import FabricConfig
from repro.sim import Simulator


def run(kind, algorithm, n=16, credits=None, elems=4, iterations=2, seed=1,
        op="sum"):
    sim = Simulator(seed=seed)
    inst = instantiate(sim, build_topology(kind, n),
                       FabricConfig(credits=credits))
    return run_collective(inst, algorithm, elems_per_rank=elems, op=op,
                          iterations=iterations)


def test_algorithms_registry():
    assert set(ALGORITHMS) == {"ring", "rh", "tree"}


@pytest.mark.parametrize("kind", ["fat-tree", "torus", "dragonfly"])
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_correct_and_at_closed_form(kind, algorithm):
    r = run(kind, algorithm)
    assert r.correct
    assert r.steps == expected_steps(algorithm, 16)
    assert r.phases == expected_phases(algorithm, 16)


@pytest.mark.parametrize("op", sorted(REDUCE_OPS))
@pytest.mark.parametrize("kind", ["fat-tree", "torus"])
def test_bit_exact_across_algorithms(kind, op):
    # N=8 keeps every product of the integer inputs below 2**53, so even
    # ``prod`` is exact in any association order.
    results = [run(kind, algo, n=8, op=op) for algo in ALGORITHMS]
    assert all(r.correct for r in results)
    assert len({r.digest for r in results}) == 1


def test_log_depth_schedules_beat_ring_at_16():
    ring = run("fat-tree", "ring").p50_time
    rh = run("fat-tree", "rh").p50_time
    assert rh < ring


def test_credits_disabled_is_bit_identical_to_uncontended():
    bare = run("torus", "ring", credits=None)
    generous = run("torus", "ring", credits=64)
    assert bare.times == generous.times
    assert bare.digest == generous.digest
    assert bare.stalls == 0 and generous.stalls == 0


def test_expected_steps_closed_forms():
    assert expected_steps("ring", 8) == 14          # 2*(N-1)
    assert expected_steps("rh", 8) == 6             # 2*log2 N
    assert expected_steps("tree", 8) == 3           # log2 N sends
    assert expected_phases("tree", 8) == 6          # 2*ceil(log2 N)
    assert expected_phases("ring", 5) == 8
