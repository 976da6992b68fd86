"""Reliable msglib channels under injected faults: loss, corruption,
reordering, outages — and the acceptance grid across all control modes."""

import pytest

from repro import build_extoll_cluster
from repro.analysis.faults import run_chaos_point
from repro.collectives.comm import CollectiveMode
from repro.core.msglib import create_channel_between, gpu_recv, gpu_send
from repro.errors import RetryExhaustedError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    LinkFaults,
    ReliabilityConfig,
)
from repro.sim import Simulator


def make_reliable_pair(plan, seed=1, slots=8, config=None):
    sim = Simulator(seed=seed)
    cluster = build_extoll_cluster(sim=sim)
    chan = create_channel_between(cluster, cluster.a, cluster.b,
                                  slots=slots, reliable=True,
                                  reliability_config=config)
    injector = FaultInjector(sim, plan).attach(cluster.net)
    return cluster, chan, injector


def run_pair(cluster, chan, messages, limit=5e-3):
    fwd = chan.end_for_sender(0)
    rev = chan.end_for_sender(1)

    def sender(ctx):
        for msg in messages:
            yield from gpu_send(ctx, fwd, msg)

    def receiver(ctx):
        got = []
        for _ in messages:
            got.append((yield from gpu_recv(ctx, fwd, rev)))
        return got

    hs = cluster.a.gpu.launch(sender)
    hr = cluster.b.gpu.launch(receiver)
    cluster.sim.run_until_complete(hs, hr, limit=limit)
    return hr.block_result(0)


@pytest.mark.quick
def test_reliable_channel_without_faults_never_retransmits():
    cluster, chan, injector = make_reliable_pair(FaultPlan.none())
    msgs = [f"msg-{i}".encode() for i in range(12)]
    assert run_pair(cluster, chan, msgs) == msgs
    assert injector.states == {}
    assert all(end.reliability.retransmits == 0 for end in (chan.a_to_b, chan.b_to_a))
    assert all(end.reliability.error is None for end in (chan.a_to_b, chan.b_to_a))


@pytest.mark.quick
def test_reliable_channel_survives_heavy_loss_and_corruption():
    cluster, chan, injector = make_reliable_pair(
        FaultPlan.uniform(loss=0.15, corrupt=0.1, seed=3), slots=4)
    msgs = [bytes([i]) * 48 for i in range(24)]  # 6x ring depth
    assert run_pair(cluster, chan, msgs, limit=20e-3) == msgs
    assert injector.drops + injector.corruptions > 0
    assert sum(end.reliability.retransmits for end in (chan.a_to_b, chan.b_to_a)) > 0
    assert all(end.reliability.error is None for end in (chan.a_to_b, chan.b_to_a))


def test_reliable_channel_survives_reordering():
    plan = FaultPlan.for_links({(0, 1): LinkFaults(
        loss=0.05, delay_prob=0.25, delay_max=20e-6)}, seed=5)
    cluster, chan, injector = make_reliable_pair(plan, slots=4)
    msgs = [f"ordered-{i:02d}".encode() for i in range(20)]
    assert run_pair(cluster, chan, msgs, limit=20e-3) == msgs
    assert injector.delays > 0


def test_reliable_channel_rides_out_an_outage():
    plan = FaultPlan.for_links({(0, 1): LinkFaults(
        down_windows=((5e-6, 60e-6),))})
    cluster, chan, injector = make_reliable_pair(plan, slots=4)
    msgs = [bytes([i]) * 32 for i in range(16)]
    assert run_pair(cluster, chan, msgs, limit=20e-3) == msgs
    assert injector.down_drops > 0
    assert sum(end.reliability.retransmits for end in (chan.a_to_b, chan.b_to_a)) > 0


def test_permanent_outage_exhausts_retries():
    config = ReliabilityConfig(timeout=2e-6, backoff=2.0,
                               max_timeout=8e-6, max_retries=4)
    plan = FaultPlan.for_links({(0, 1): LinkFaults(
        down_windows=((0.0, 1.0),))})     # dead for the whole run
    cluster, chan, _ = make_reliable_pair(plan, config=config)
    fwd = chan.end_for_sender(0)

    def sender(ctx):
        yield from gpu_send(ctx, fwd, b"into the void")

    hs = cluster.a.gpu.launch(sender)
    cluster.sim.run_until_complete(hs, limit=1e-3)
    with pytest.raises(RetryExhaustedError, match="channel 0->1") as info:
        cluster.sim.run(until=cluster.sim.now + 2e-3)
    assert fwd.reliability.error is info.value
    assert fwd.reliability.retransmits >= config.max_retries


@pytest.mark.quick
def test_duplicate_detector_re_puts_credit_once_per_replay():
    """The receiver-side duplicate detector: a replayed put landing on an
    already-consumed slot means the sender missed a credit, so exactly one
    credit re-put goes back; a put of fresh data schedules none."""
    cluster, chan, _ = make_reliable_pair(FaultPlan.none())
    msgs = [f"msg-{i}".encode() for i in range(3)]
    assert run_pair(cluster, chan, msgs) == msgs
    fwd = chan.end_for_sender(0)
    engine = fwd.reliability
    # Every put of the lossless run carried fresh data.
    assert (engine.ack_replays, engine.retransmits) == (0, 0)
    # The sender lost the last credit; the NIC replays the slot of seq 3.
    fwd.credit_mem.write_u64(fwd.credit_word.base, 2)
    cluster.a.nic.rma.post(fwd.slot_put(3))
    sim = cluster.sim
    sim.run(until=sim.now + 200e-6)
    assert engine.ack_replays == 1
    assert fwd.read_credit() == fwd.consumed == 3
    assert chan.end_for_sender(1).reliability.ack_replays == 0


@pytest.mark.parametrize("mode", list(CollectiveMode),
                         ids=[m.value for m in CollectiveMode])
def test_ring_allreduce_correct_under_loss_in_every_mode(mode):
    """The acceptance grid: a 4-node ring all-reduce at 1% loss (plus
    0.5% corruption) must compute the exact right answer in all three
    control modes."""
    point, comm, injector = run_chaos_point(mode, 64, 0.01, corrupt=0.005,
                                            nodes=4, iterations=2, warmup=1)
    assert point.correct
    assert injector.drops + injector.corruptions > 0
    assert comm.retransmits > 0
    assert comm.snapshot()["exhausted"] == 0   # no engine died along the way
