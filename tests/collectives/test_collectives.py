"""Correctness and scaling of the ring collectives.

The numerics checks run the real simulated datapath end to end: device (or
host) threads post puts through the BAR pages, payloads cross the fabric,
and the final values every rank holds are compared against exact expected
results computed in plain Python.
"""

import pytest

from repro.collectives import (
    CollectiveMode,
    build_communicator,
    collective_mode,
    run_collective,
)
from repro.collectives.algorithms import halo_exchange
from repro.collectives.bench import (OPS, op_connectivity, op_max_payload,
                                     pattern)
from repro.errors import BenchmarkError

FAST = dict(iterations=2, warmup=1)


def run(op, nodes, size=64, mode=CollectiveMode.POLL_ON_GPU,
        topology="auto", **kw):
    cluster, comm = build_communicator(
        nodes, size, mode, topology,
        connectivity=op_connectivity(op),
        max_payload=op_max_payload(op, nodes, size))
    return run_collective(cluster, comm, op, size, **{**FAST, **kw})


# -- numerics across node counts ---------------------------------------------------

@pytest.mark.parametrize("nodes", [2, 4, 8])
def test_all_reduce_correct_and_2n_minus_2_steps(nodes):
    result = run("all-reduce", nodes)
    assert result.correct
    assert result.steps == 2 * (nodes - 1)


@pytest.mark.parametrize("op", OPS)
def test_every_op_correct_on_four_nodes(op):
    result = run(op, 4)
    assert result.correct
    assert result.nodes == 4


@pytest.mark.parametrize("nodes", [3, 5])
def test_odd_rings(nodes):
    assert run("all-gather", nodes).correct
    assert run("all-reduce", nodes).correct


def test_step_counts():
    assert run("barrier", 4).steps == 2
    assert run("broadcast", 4).steps == 1        # at most one send per rank
    assert run("all-gather", 4).steps == 3       # N-1
    assert run("halo", 4).steps == 2             # one per neighbor


# -- modes -------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(CollectiveMode))
def test_all_reduce_every_mode(mode):
    result = run("all-reduce", 3, mode=mode)
    assert result.correct
    assert result.steps == 4
    assert result.mode == mode.value


@pytest.mark.parametrize("mode", list(CollectiveMode))
def test_halo_every_mode(mode):
    assert run("halo", 4, mode=mode).correct


def test_mode_parsing():
    assert collective_mode("hostControlled") is CollectiveMode.HOST_CONTROLLED
    with pytest.raises(BenchmarkError):
        collective_mode("dev2dev-nope")


# -- topologies --------------------------------------------------------------------

@pytest.mark.parametrize("topology", ["ring", "full", "switch"])
def test_all_reduce_on_each_topology(topology):
    result = run("all-reduce", 4, topology=topology)
    assert result.correct
    assert result.topology == topology


def test_switch_relay_costs_latency():
    direct = run("all-reduce", 4, topology="full")
    relayed = run("all-reduce", 4, topology="switch")
    assert relayed.correct and direct.correct
    assert relayed.point.latency > direct.point.latency


# -- halo exchange details ---------------------------------------------------------

def test_halo_non_periodic_boundaries():
    nodes, size = 4, 32
    cluster, comm = build_communicator(nodes, size)
    ghosts = {}

    def body(ctx, rc):
        ghosts[rc.rank] = yield from rc.run(ctx, halo_exchange(
            rc.rank, rc.size, pattern(rc.rank, 2 * size), size,
            periodic=False))

    handles = comm.launch(body)
    cluster.sim.run_until_complete(*handles, limit=1.0)
    assert ghosts[0][0] is None                      # no neighbor past rank 0
    assert ghosts[nodes - 1][1] is None
    for r in range(1, nodes):
        assert ghosts[r][0] == pattern(r - 1, 2 * size)[-size:]
    for r in range(nodes - 1):
        assert ghosts[r][1] == pattern(r + 1, 2 * size)[:size]


# -- broadcast root ----------------------------------------------------------------

def test_broadcast_from_nonzero_root():
    from repro.collectives.algorithms import broadcast
    nodes, size = 4, 24
    cluster, comm = build_communicator(nodes, size)
    finals = {}

    def body(ctx, rc):
        data = pattern(99, size) if rc.rank == 2 else None
        finals[rc.rank] = yield from rc.run(
            ctx, broadcast(rc.rank, rc.size, data, root=2))

    handles = comm.launch(body)
    cluster.sim.run_until_complete(*handles, limit=1.0)
    assert all(finals[r] == pattern(99, size) for r in range(nodes))


# -- validation --------------------------------------------------------------------

def test_non_neighbor_channel_rejected():
    cluster, comm = build_communicator(4, 64)
    with pytest.raises(BenchmarkError, match="ring neighbors"):
        comm.channel(0, 2)


def test_bad_sizes_rejected():
    with pytest.raises(BenchmarkError):
        build_communicator(4, 0)
    with pytest.raises(BenchmarkError):
        build_communicator(4, 12)   # not a multiple of 8
    with pytest.raises(BenchmarkError):
        run_collective(*build_communicator(2, 64), "transpose", 64)


def test_single_node_communicator_rejected():
    with pytest.raises(Exception):
        build_communicator(1, 64)
