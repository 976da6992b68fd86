"""Point-to-point basics: eager, rendezvous, wildcards, ordering, errors."""

from __future__ import annotations

import pytest

from repro.cluster import build_extoll_cluster
from repro.errors import MpiError
from repro.mpi import ANY_SOURCE, ANY_TAG, MpiCommunicator, MpiConfig
from repro.sim import Simulator


def make_comm(num_nodes=2, seed=11, config=None, reliable=False,
              reliability_config=None):
    sim = Simulator(seed=seed)
    cluster = build_extoll_cluster(
        sim=sim, num_nodes=num_nodes,
        topology="pair" if num_nodes == 2 else "ring")
    return MpiCommunicator(cluster, config=config, reliable=reliable,
                           reliability_config=reliability_config)


@pytest.fixture
def comm():
    return make_comm()


def test_eager_send_recv(comm):
    r0, r1 = comm.ranks
    send = r0.isend(1, b"hello-mpi", tag=5)
    recv = r1.irecv(source=0, tag=5)
    comm.wait(send, recv)
    assert recv.data == b"hello-mpi"
    assert recv.matched_source == 0
    assert recv.matched_tag == 5
    assert send.done.processed and recv.done.processed


def test_eager_is_cpu_free_after_staging(comm):
    """The defining property: no WRs through the BAR, no doorbells."""
    r0, r1 = comm.ranks
    before = comm.snapshot()
    reqs = [r0.isend(1, b"x" * 64, tag=1), r1.irecv(source=0, tag=1)]
    comm.wait(*reqs)
    delta = comm.diff(before)
    assert delta["host_wr_posts"] == 0
    assert delta["batch_doorbells"] == 0
    assert delta["trigger_doorbells"] == 0
    assert delta["chains_fired"] == 1


def test_recv_posted_first(comm):
    r0, r1 = comm.ranks
    recv = r1.irecv(source=0, tag=9)
    assert not recv.done.processed
    send = r0.isend(1, b"late", tag=9)
    comm.wait(send, recv)
    assert recv.data == b"late"


def test_unexpected_queue_fifo(comm):
    """Two same-tag messages arrive before any recv: matched oldest-first."""
    r0, r1 = comm.ranks
    s1 = r0.isend(1, b"first", tag=3)
    s2 = r0.isend(1, b"second", tag=3)
    comm.wait(s1, s2)
    comm.sim.run(until=comm.sim.now + 0.001)   # let both land
    ra = r1.irecv(source=0, tag=3)
    rb = r1.irecv(source=0, tag=3)
    comm.wait(ra, rb)
    assert ra.data == b"first"
    assert rb.data == b"second"
    assert comm.snapshot()["unexpected_arrivals"] >= 2


def test_wildcard_source_and_tag():
    comm = make_comm(num_nodes=3)
    r0, r1, r2 = comm.ranks
    s = r2.isend(0, b"from-two", tag=7)
    recv = r0.irecv(source=ANY_SOURCE, tag=ANY_TAG)
    comm.wait(s, recv)
    assert recv.data == b"from-two"
    assert recv.matched_source == 2
    assert recv.matched_tag == 7


def test_tag_selectivity(comm):
    """A recv for tag 2 must not swallow the earlier tag-1 arrival."""
    r0, r1 = comm.ranks
    s1 = r0.isend(1, b"tag-one", tag=1)
    s2 = r0.isend(1, b"tag-two", tag=2)
    comm.wait(s1, s2)
    comm.sim.run(until=comm.sim.now + 0.001)
    recv2 = r1.irecv(source=0, tag=2)
    comm.wait(recv2)
    assert recv2.data == b"tag-two"
    recv1 = r1.irecv(source=0, tag=1)
    comm.wait(recv1)
    assert recv1.data == b"tag-one"


def test_rendezvous_roundtrip(comm):
    """Payloads above the eager threshold take RTS/CTS/data/FIN."""
    payload = bytes(i & 0xFF for i in range(4096))
    r0, r1 = comm.ranks
    before = comm.snapshot()
    send = r0.isend(1, payload, tag=4)
    recv = r1.irecv(source=0, tag=4)
    comm.wait(send, recv)
    assert recv.data == payload
    delta = comm.diff(before)
    assert delta["rndv_sent"] == 1
    assert delta["eager_sent"] == 0
    assert delta["host_wr_posts"] == 0          # still CPU-free
    assert comm.snapshot()["rendezvous_open"] == 0


def test_rendezvous_unexpected_rts(comm):
    """RTS arriving before the recv is queued and matched later."""
    payload = b"R" * 1000
    r0, r1 = comm.ranks
    send = r0.isend(1, payload, tag=8)
    comm.sim.run(until=comm.sim.now + 0.001)    # RTS lands unmatched
    recv = r1.irecv(source=0, tag=8)
    comm.wait(send, recv)
    assert recv.data == payload


def test_eager_rendezvous_boundary(comm):
    """<= threshold is eager, threshold+1 is rendezvous."""
    thr = comm.config.eager_threshold
    r0, r1 = comm.ranks
    pairs = [(b"e" * thr, "eager_sent"), (b"r" * (thr + 1), "rndv_sent")]
    for payload, counter in pairs:
        before = comm.snapshot()
        send = r0.isend(1, payload, tag=6)
        recv = r1.irecv(source=0, tag=6)
        comm.wait(send, recv)
        assert recv.data == payload
        assert comm.diff(before)[counter] == 1


def test_bidirectional_traffic(comm):
    r0, r1 = comm.ranks
    reqs = [r0.isend(1, b"a2b", tag=1), r1.isend(0, b"b2a", tag=1),
            r0.irecv(source=1, tag=1), r1.irecv(source=0, tag=1)]
    comm.wait(*reqs)
    assert reqs[2].data == b"b2a"
    assert reqs[3].data == b"a2b"


def test_many_messages_credit_flow(comm):
    """More sends than ring slots: credit thresholds pace the chains."""
    slots = comm.config.slots
    total = 3 * slots
    r0, r1 = comm.ranks
    recvs = [r1.irecv(source=0, tag=0) for _ in range(total)]
    sends = []
    for i in range(total):
        sends.append(r0.isend(1, b"m%03d" % i, tag=0))
        # Stay within the staging window: wait for fired chains to clear.
        if (i + 1) % slots == 0:
            comm.wait(*sends)
    comm.wait(*sends, *recvs)
    for i, recv in enumerate(recvs):
        assert recv.data == b"m%03d" % i


def test_send_window_exhaustion_raises(comm):
    r0, r1 = comm.ranks
    with pytest.raises(MpiError, match="exhausted"):
        for _ in range(comm.config.slots + 1):
            r0.isend(1, b"burst", tag=0)


def test_self_send_rejected(comm):
    with pytest.raises(MpiError):
        comm.ranks[0].isend(0, b"loop")
    with pytest.raises(MpiError):
        comm.ranks[0].irecv(source=0)


def test_oversized_eager_config_rejected():
    with pytest.raises(MpiError):
        MpiConfig(eager_threshold=256, slot_size=256)


def test_ring_connectivity_rejects_non_neighbors():
    comm = make_comm(num_nodes=4, config=MpiConfig(connectivity="ring"))
    with pytest.raises(MpiError, match="no channel"):
        comm.ranks[0].isend(2, b"far")


def test_stats_snapshot_diff(comm):
    before = comm.snapshot()
    r0, r1 = comm.ranks
    comm.wait(r0.isend(1, b"s", tag=0), r1.irecv(source=0, tag=0))
    delta = comm.diff(before)
    assert delta["eager_sent"] == 1
    assert delta["matches"] == 1
    assert delta["pending_sends"] == 0          # gauge, back to zero
    assert delta["posted_depth"] == 0
    assert delta["descriptors_fired"] == 1
    assert delta["armed_chains"] == 0           # gauge, nothing left armed
