"""Nonblocking collectives as chain DAGs — including the acceptance bar:
an 8-rank triggered iallreduce with ZERO host WR posts, bit-exact against
the channel datapath's ring all-reduce on the same seed.
"""

from __future__ import annotations

import pytest

from repro.cluster import build_extoll_cluster
from repro.collectives import CollectiveMode, build_communicator
from repro.collectives.algorithms import all_reduce
from repro.collectives.bench import vector
from repro.mpi import MpiCommunicator, MpiConfig, iallreduce, ibarrier, ibcast
from repro.mpi.collectives import _pump, _start
from repro.mpi.request import MpiRequest
from repro.sim import Simulator


def make_comm(num_nodes, seed=11, **cfg):
    sim = Simulator(seed=seed)
    cluster = build_extoll_cluster(
        sim=sim, num_nodes=num_nodes,
        topology="pair" if num_nodes == 2 else "ring")
    config = MpiConfig(connectivity="ring", **cfg) if num_nodes > 2 \
        else MpiConfig(**cfg)
    return MpiCommunicator(cluster, config=config)


@pytest.mark.parametrize("nodes", [2, 4])
def test_ibarrier_completes_everywhere(nodes):
    comm = make_comm(nodes)
    reqs = [ibarrier(comm, rank) for rank in comm.ranks]
    comm.wait(*reqs)
    assert all(r.done.processed for r in reqs)


def test_ibarrier_release_after_last_entry():
    """Nobody leaves the barrier before the last rank has entered: rank 0
    only starts the ring token once IT calls ibarrier, so delaying rank 0
    delays every completion past the entry."""
    comm = make_comm(4)
    late = {}
    reqs = [ibarrier(comm, rank) for rank in comm.ranks[1:]]
    comm.sim.run(until=comm.sim.now + 0.0005)
    assert not any(r.done.processed for r in reqs)      # stuck: rank 0 absent
    reqs.append(ibarrier(comm, comm.ranks[0]))
    comm.wait(*reqs)
    assert all(r.done.processed for r in reqs)


@pytest.mark.parametrize("root", [0, 2])
def test_ibcast_relays_payload(root):
    comm = make_comm(4)
    payload = bytes((i * 7 + 1) & 0xFF for i in range(1000))  # rendezvous
    reqs = [ibcast(comm, rank, payload if rank.rank == root else None,
                   root=root)
            for rank in comm.ranks]
    comm.wait(*reqs)
    assert all(r.data == payload for r in reqs)


@pytest.mark.parametrize("nodes,size", [(2, 64), (4, 128), (4, 512)])
def test_iallreduce_sums_exactly(nodes, size):
    comm = make_comm(nodes, eager_threshold=256, slot_size=512)
    vectors = [vector(r, nodes, size) for r in range(nodes)]
    expected = [sum(col) for col in zip(*vectors)]
    reqs = [iallreduce(comm, rank, vectors[rank.rank])
            for rank in comm.ranks]
    comm.wait(*reqs)
    for req in reqs:
        assert req.data == pytest.approx(expected)


def test_collectives_back_to_back_tags_do_not_collide():
    comm = make_comm(4)
    b1 = [ibarrier(comm, rank) for rank in comm.ranks]
    b2 = [ibarrier(comm, rank) for rank in comm.ranks]
    comm.wait(*b1, *b2)
    assert all(r.done.processed for r in b1 + b2)


# -- the acceptance test ----------------------------------------------------------

def _pr2_ring_all_reduce_finals(nodes, size, seed):
    """Run PR 2's collectives stack (device mode) and return the final
    vector every rank holds."""
    sim = Simulator(seed=seed)
    cluster, comm = build_communicator(nodes, size,
                                       mode=CollectiveMode.POLL_ON_GPU,
                                       sim=sim)
    finals = {}

    def body(ctx, rc):
        finals[rc.rank] = yield from rc.run(ctx, all_reduce(
            "ring", rc.rank, rc.size, vector(rc.rank, rc.size, size)))

    handles = comm.launch(body)
    cluster.sim.run_until_complete(*handles, limit=1.0)
    return finals


def test_iallreduce_n8_cpu_free_and_bit_exact_vs_pr2():
    nodes, size, seed = 8, 256, 23
    baseline = _pr2_ring_all_reduce_finals(nodes, size, seed)

    comm = make_comm(nodes, seed=seed, eager_threshold=256, slot_size=512)
    before = comm.snapshot()
    reqs = [iallreduce(comm, rank, vector(rank.rank, nodes, size))
            for rank in comm.ranks]
    comm.wait(*reqs)
    delta = comm.diff(before)

    # Zero host-proxy control: nothing crossed any BAR after arming.
    assert delta["host_wr_posts"] == 0
    assert delta["batch_doorbells"] == 0
    assert delta["trigger_doorbells"] == 0
    # 2*(N-1) steps per rank, one chain per step.
    assert delta["chains_fired"] == nodes * 2 * (nodes - 1)

    # Bit-exact against the PR 2 datapath: same schedule, same association
    # order, so float64 results agree to the last bit.
    for rank in comm.ranks:
        assert reqs[rank.rank].data == baseline[rank.rank]  # exact ==


def test_script_failure_fails_the_request():
    """A collective whose script raises fails its request: ``comm.wait``
    raises the script's own exception, not a request completed with None."""

    class ScriptBug(RuntimeError):
        pass

    def script(rank):
        if rank == 0:
            yield ("send", 1, b"x" * 8)
            return "sent"
        yield ("recv", 0)
        raise ScriptBug("reduce() got an unexpected keyword argument")

    comm = make_comm(2)
    reqs = [_start(comm, rank, "buggy", script(rank.rank))
            for rank in comm.ranks]
    with pytest.raises(ScriptBug, match="unexpected keyword"):
        comm.wait(*reqs)
    assert reqs[0].data == "sent" and not reqs[1].done.ok


def test_failed_sub_request_is_thrown_into_the_script():
    comm = make_comm(2)
    inner = MpiRequest(comm.sim, "inner", 0)
    outer = MpiRequest(comm.sim, "outer", 0)

    def script():
        try:
            yield inner
        except KeyError as exc:
            return f"caught {exc}"

    _pump(comm, script(), outer)
    inner.done.fail(KeyError("lost"))
    comm.wait(outer)
    assert outer.data == "caught 'lost'"
