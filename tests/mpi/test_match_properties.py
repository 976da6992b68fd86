"""Property tests for the (source, tag) matching engine plus the
determinism and no-loss/no-dup guarantees of the full layer.

The pure-engine properties drive :class:`MatchEngine` directly (it is
sim-free by design); the end-to-end properties run real clusters — reliable
channels under a loss grid, and bit-identical replay across same-seed runs.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.cluster import build_extoll_cluster
from repro.faults import FaultInjector, FaultPlan
from repro.mpi import (
    ANY_SOURCE,
    ANY_TAG,
    Envelope,
    Inbound,
    MatchEngine,
    MpiCommunicator,
    MpiRequest,
    MsgKind,
)
from repro.sim import Simulator

SOURCES = st.integers(min_value=0, max_value=2)
TAGS = st.integers(min_value=0, max_value=2)


def arrival(src: int, tag: int, stamp: int) -> Inbound:
    return Inbound(Envelope(kind=MsgKind.EAGER, src_rank=src, comm_id=0,
                            tag=tag, size=8),
                   payload=stamp.to_bytes(8, "little"))


def recv(source: int, tag: int) -> MpiRequest:
    """A bare request: the engine only reads .source/.tag."""
    return MpiRequest(Simulator(), "recv", 9, source=source, tag=tag)


#: An interleaving: ("msg", source, tag) arrivals and ("recv", source, tag)
#: posts, where source/tag may be the -1 wildcards on recvs.
ops = st.lists(
    st.one_of(
        st.tuples(st.just("msg"), SOURCES, TAGS),
        st.tuples(st.just("recv"),
                  st.one_of(SOURCES, st.just(ANY_SOURCE)),
                  st.one_of(TAGS, st.just(ANY_TAG)))),
    max_size=40)


def drive(sequence):
    """Run one interleaving; returns (engine, deliveries) where deliveries
    are (request, message) pairs in match order."""
    engine = MatchEngine(rank=9)
    deliveries = []
    for i, (op, source, tag) in enumerate(sequence):
        if op == "msg":
            req = engine.incoming(arrival(source, tag, stamp=i))
            if req is not None:
                deliveries.append((req, arrival(source, tag, stamp=i)))
        else:
            req = recv(source, tag)
            msg = engine.post(req)
            if msg is not None:
                deliveries.append((req, msg))
    return engine, deliveries


@settings(max_examples=120, deadline=None)
@given(ops)
def test_fifo_per_source_tag(sequence):
    """Messages from one (source, tag) stream are delivered in send order —
    MPI's non-overtaking rule — no matter how recvs interleave."""
    _engine, deliveries = drive(sequence)
    last_stamp = {}
    for _req, msg in deliveries:
        key = (msg.src_rank, msg.tag)
        stamp = int.from_bytes(msg.payload, "little")
        assert stamp > last_stamp.get(key, -1)
        last_stamp[key] = stamp


@settings(max_examples=120, deadline=None)
@given(ops)
def test_no_lost_no_duplicated_messages(sequence):
    """Every arrival is delivered at most once, every request matched at
    most once, and nothing vanishes: delivered + queued == arrived."""
    engine, deliveries = drive(sequence)
    stamps = [int.from_bytes(m.payload, "little") for _r, m in deliveries]
    assert len(stamps) == len(set(stamps))              # no duplicates
    reqs = [r for r, _m in deliveries]
    assert len(reqs) == len(set(id(r) for r in reqs))   # one match per recv
    arrived = sum(1 for op, *_ in sequence if op == "msg")
    assert len(deliveries) + len(engine.unexpected) == arrived
    # Drain with wildcards: everything left must come out, oldest first.
    leftovers = []
    for _ in range(len(engine.unexpected)):
        msg = engine.post(recv(ANY_SOURCE, ANY_TAG))
        assert msg is not None
        leftovers.append(int.from_bytes(msg.payload, "little"))
    assert leftovers == sorted(leftovers)
    assert not engine.unexpected
    assert len(deliveries) + len(leftovers) == arrived


@settings(max_examples=120, deadline=None)
@given(ops)
def test_match_order_is_a_pure_function_of_the_interleaving(sequence):
    """Replaying the same interleaving reproduces the same matches — the
    engine holds no hidden state, so determinism reduces to the transport
    delivering arrivals in the same order (fixed seed does exactly that)."""
    _e1, d1 = drive(sequence)
    _e2, d2 = drive(sequence)
    flat1 = [(m.src_rank, m.tag, m.payload) for _r, m in d1]
    flat2 = [(m.src_rank, m.tag, m.payload) for _r, m in d2]
    assert flat1 == flat2


@settings(max_examples=60, deadline=None)
@given(ops)
def test_wildcard_recv_takes_the_oldest_acceptable(sequence):
    """After any interleaving, a fresh wildcard recv matches the FRONT of
    the unexpected queue."""
    engine, _deliveries = drive(sequence)
    if not engine.unexpected:
        return
    oldest = engine.unexpected[0]
    msg = engine.post(recv(ANY_SOURCE, ANY_TAG))
    assert msg is oldest


# -- end-to-end: determinism and reliability ---------------------------------------

def _traffic_run(seed: int, loss: float = 0.0, reliable: bool = False):
    """A fixed mixed-tag traffic pattern; returns the per-rank list of
    (matched_source, matched_tag, payload) in completion order plus the
    comm for stats assertions."""
    sim = Simulator(seed=seed)
    cluster = build_extoll_cluster(sim=sim, num_nodes=2)
    comm = MpiCommunicator(cluster, reliable=reliable)
    if loss:
        FaultInjector(sim, FaultPlan.uniform(loss=loss, seed=5)).attach(
            cluster.net)
    r0, r1 = comm.ranks
    sends, recvs = [], []
    for i in range(12):
        sends.append(r0.isend(1, b"f%02d" % i, tag=i % 3))
        sends.append(r1.isend(0, b"g%02d" % i, tag=i % 3))
    for i in range(12):
        recvs.append(r1.irecv(source=ANY_SOURCE, tag=i % 3))
        recvs.append(r0.irecv(source=ANY_SOURCE, tag=ANY_TAG))
    comm.wait(*sends, *recvs, limit=1.0)
    log = [(q.matched_source, q.matched_tag, q.data) for q in recvs]
    return log, comm


def test_same_seed_same_match_order():
    first, _ = _traffic_run(seed=42)
    second, _ = _traffic_run(seed=42)
    assert first == second


@pytest.mark.parametrize("loss", [0.05, 0.15])
def test_reliable_channels_lose_and_duplicate_nothing(loss):
    """The faults grid: lossy links + retransmission below the MPI layer
    must still deliver every message exactly once, in per-stream order."""
    log, comm = _traffic_run(seed=7, loss=loss, reliable=True)
    payloads = [data for _s, _t, data in log]
    assert len(payloads) == len(set(payloads)) == 24    # no loss, no dups
    for prefix in (b"f", b"g"):
        per_tag = {}
        for _s, tag, data in log:
            if data.startswith(prefix):
                per_tag.setdefault(tag, []).append(data)
        for stream in per_tag.values():
            assert stream == sorted(stream)             # non-overtaking
    retransmits = sum(
        end.reliability.retransmits
        for chan in comm._channels.values()
        for end in (chan.a_to_b, chan.b_to_a))
    assert retransmits > 0                              # faults really bit
