"""Every collective schedule against its closed forms, without a simulator.

A loopback interpreter runs all N ranks' op scripts over per-(src, dst)
FIFOs, stepping the ranks round-robin one op at a time.  What it
observes — the results, each rank's sends, every payload size, the
longest chain of dependent messages — is checked against the exact
element-wise reference and the closed forms the transports and benchmarks
rely on.
"""

from collections import defaultdict, deque

import pytest

from repro.collectives.algorithms import (
    ALLREDUCE_ALGORITHMS,
    REDUCE_OPS,
    all_gather,
    all_reduce,
    barrier,
    broadcast,
    expected_phases,
    expected_steps,
    halo_exchange,
    max_message_bytes,
    messages_per_round,
    pack,
)
from repro.errors import ConfigError

SIZES = list(range(2, 18)) + [32, 64]


class Trace:
    """What one loopback run observed."""

    def __init__(self, n):
        self.sends = [0] * n
        self.payloads = []
        self.depth = 0      # longest chain of causally dependent messages


def loopback(scripts):
    """Run one op script per rank to completion; returns the results and
    a :class:`Trace`.  A message's depth is one more than the deepest
    message its sender had received when sending it."""
    n = len(scripts)
    fifos = defaultdict(deque)      # (src, dst) -> [(payload, depth)]
    level = [0] * n                 # deepest message each rank received
    inbox = [None] * n              # value for each script's next send()
    blocked = [None] * n            # a recv op waiting on an empty FIFO
    results = {}
    trace = Trace(n)
    while len(results) < n:
        progressed = False
        for r in range(n):
            if r in results:
                continue
            op = blocked[r]
            if op is None:
                try:
                    op = scripts[r].send(inbox[r])
                except StopIteration as stop:
                    results[r] = stop.value
                    progressed = True
                    continue
                inbox[r] = None
            if op[0] == "recv":
                fifo = fifos[(op[1], r)]
                if not fifo:
                    blocked[r] = op
                    continue
                inbox[r], depth = fifo.popleft()
                level[r] = max(level[r], depth)
                blocked[r] = None
            elif op[0] == "send":
                assert op[1] != r and 0 <= op[1] < n
                depth = level[r] + 1
                fifos[(r, op[1])].append((op[2], depth))
                trace.sends[r] += 1
                trace.payloads.append(len(op[2]))
                trace.depth = max(trace.depth, depth)
            else:
                assert op[0] == "compute" and op[1] > 0
            progressed = True
        assert progressed, "deadlock: every live rank waits on a recv"
    assert not any(fifos.values()), "messages left unreceived"
    return [results[r] for r in range(n)], trace


def vector(rank, length):
    """Signed powers of two: every sum, max, min AND product of them is
    exact in float64, whatever the association order."""
    return [float((1 if (rank + i) % 3 else -1) << ((7 * rank + i) % 4))
            for i in range(length)]


def _cases():
    for algorithm in ALLREDUCE_ALGORITHMS:
        for n in SIZES:
            if algorithm == "rh" and n & (n - 1):
                continue
            yield algorithm, n


@pytest.mark.parametrize("op", sorted(REDUCE_OPS))
@pytest.mark.parametrize("algorithm,n", list(_cases()))
def test_all_reduce_matches_fold_and_closed_forms(algorithm, n, op):
    length = 2 * n
    inputs = [vector(r, length) for r in range(n)]
    results, trace = loopback(
        [all_reduce(algorithm, r, n, inputs[r], op) for r in range(n)])

    combine = REDUCE_OPS[op]
    expected = inputs[0]
    for vec in inputs[1:]:
        expected = [combine(a, b) for a, b in zip(expected, vec)]
    for result in results:
        assert pack(result) == pack(expected)           # bit for bit

    assert max(trace.sends) == expected_steps(algorithm, n)
    assert sum(trace.sends) == messages_per_round(algorithm, n)
    assert max(trace.payloads) == max_message_bytes(algorithm, n,
                                                    8 * length)
    # A phase is one link of the dependency chain; the tree's partial
    # subtrees finish early when N is not a power of two.
    if n & (n - 1) == 0 or algorithm == "ring":
        assert trace.depth == expected_phases(algorithm, n)
    else:
        assert trace.depth <= expected_phases(algorithm, n)


@pytest.mark.parametrize("n", SIZES)
def test_small_collectives(n):
    results, trace = loopback([barrier(r, n) for r in range(n)])
    assert results == [None] * n and trace.sends == [2] * n

    root = n // 2
    data = bytes(range(24))
    results, trace = loopback(
        [broadcast(r, n, data if r == root else None, root)
         for r in range(n)])
    assert results == [data] * n
    assert max(trace.sends) == 1 and sum(trace.sends) == n - 1

    pieces = [bytes([r]) * 8 for r in range(n)]
    results, trace = loopback([all_gather(r, n, pieces[r])
                               for r in range(n)])
    assert results == [pieces] * n and trace.sends == [n - 1] * n

    interiors = [bytes([r, r + 1]) * 8 for r in range(n)]
    results, trace = loopback([halo_exchange(r, n, interiors[r], 4)
                               for r in range(n)])
    for r, (left, right) in enumerate(results):
        assert left == interiors[(r - 1) % n][-4:]
        assert right == interiors[(r + 1) % n][:4]
    assert trace.sends == [2] * n


# -- eager validation ------------------------------------------------------------

@pytest.mark.parametrize("closed_form", [
    expected_steps, expected_phases, messages_per_round,
    lambda a, n: max_message_bytes(a, n, 64)])
def test_closed_forms_reject_unknown_schedules(closed_form):
    with pytest.raises(ConfigError, match="unknown all-reduce algorithm"):
        closed_form("bogus", 8)
    with pytest.raises(ConfigError, match="power-of-two"):
        closed_form("rh", 6)


@pytest.mark.parametrize("args,match", [
    (("ring", 0, 4, [1.0] * 8, "median"), "unknown reduction op"),
    (("bogus", 0, 4, [1.0] * 8, "sum"), "unknown all-reduce algorithm"),
    (("rh", 0, 6, [1.0] * 12, "sum"), "power-of-two"),
    (("tree", 0, 4, [], "sum"), "positive multiple"),
    (("ring", 0, 4, [1.0] * 6, "sum"), "positive multiple"),
])
def test_all_reduce_validates_on_construction(args, match):
    # Raised by the call itself, before a single op is asked for.
    with pytest.raises(ConfigError, match=match):
        all_reduce(*args)


def test_transports_reject_at_the_call_site():
    """Not from inside a running process, where the error would fail the
    request and surface only when the simulator runs."""
    from repro.cluster import build_extoll_cluster
    from repro.fabrics import FabricConfig, build_topology, instantiate
    from repro.fabrics.collective import run_collective
    from repro.mpi import MpiCommunicator, MpiConfig, iallreduce
    from repro.sim import Simulator

    sim = Simulator(seed=1)
    fabric = instantiate(sim, build_topology("fat-tree", 8), FabricConfig())
    with pytest.raises(ConfigError, match="unknown reduction op"):
        run_collective(fabric, "ring", op="bogus")

    sim = Simulator(seed=1)
    comm = MpiCommunicator(
        build_extoll_cluster(sim=sim, num_nodes=4, topology="ring"),
        config=MpiConfig(connectivity="ring"))
    with pytest.raises(ConfigError, match="positive multiple"):
        iallreduce(comm, comm.ranks[0], [1.0] * 6)
    assert comm.ranks[0].coll_seq == 0
