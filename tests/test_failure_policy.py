"""The simulator's failure policy: a failure nothing observes is raised by
the run call, ahead of the deadlock or time limit it usually causes, and a
deadlock report names the stuck processes."""

import pytest

from repro import build_extoll_cluster
from repro.core.msglib import create_channel_between, gpu_recv, gpu_send
from repro.errors import DeadlockError, RetryExhaustedError, SimulationError
from repro.faults import FaultInjector, FaultPlan, LinkFaults, \
    ReliabilityConfig
from repro.sim import Simulator


def test_deadlock_report_names_each_stuck_process_and_its_event():
    sim = Simulator()
    ping, pong = sim.event("ping"), sim.event("pong")

    def left():
        yield ping            # only right() would trigger ping ...
        pong.succeed()

    def right():
        yield pong            # ... and only left() would trigger pong
        ping.succeed()

    sim.process(left(), name="left")
    sim.process(right(), name="right")
    with pytest.raises(DeadlockError) as info:
        sim.run()
    msg = str(info.value)
    assert "2 process(es) still waiting" in msg
    assert "'left' waiting on <Event 'ping' pending>" in msg
    assert "'right' waiting on <Event 'pong' pending>" in msg


def test_deadlock_report_is_capped():
    sim = Simulator()
    never = sim.event("never")

    def stuck():
        yield never

    for i in range(25):
        sim.process(stuck(), name=f"p{i}")
    with pytest.raises(DeadlockError) as info:
        sim.run_until_complete(never)
    msg = str(info.value)
    assert "awaited events completed: <Event 'never' pending>" in msg
    assert "'p19'" in msg and "'p20'" not in msg
    assert msg.endswith("... and 5 more")


def test_unjoined_failure_beats_the_deadlock_it_causes():
    """A process that raises while another waits forever on an event only
    the first would trigger: the run raises the original exception, not a
    DeadlockError, and names where and when it happened."""
    sim = Simulator()
    reply = sim.event("reply")

    class KwargBug(TypeError):
        pass

    def server():
        yield sim.timeout(2e-6)
        raise KwargBug("handler() got an unexpected keyword argument")

    def client():
        yield reply

    sim.process(server(), name="server")
    sim.process(client(), name="client")
    with pytest.raises(KwargBug, match="unexpected keyword") as info:
        sim.run()
    origin = info.value.__cause__
    assert isinstance(origin, SimulationError)
    assert "Process 'server' failed at t=2e-06s" in str(origin)
    # The deadlock it caused is still reported, behind the root cause.
    assert "'client' waiting on <Event 'reply' pending>" in str(origin)


def test_permanent_outage_surfaces_as_retry_exhaustion():
    sim = Simulator(seed=1)
    cluster = build_extoll_cluster(sim=sim)
    chan = create_channel_between(
        cluster, cluster.a, cluster.b, reliable=True,
        reliability_config=ReliabilityConfig(
            timeout=2e-6, max_timeout=8e-6, max_retries=4))
    FaultInjector(sim, FaultPlan.for_links({(0, 1): LinkFaults(
        loss=1.0)})).attach(cluster.net)
    fwd, rev = chan.end_for_sender(0), chan.end_for_sender(1)

    def sender(ctx):
        yield from gpu_send(ctx, fwd, b"into the void")

    def receiver(ctx):
        return (yield from gpu_recv(ctx, fwd, rev))

    hs = cluster.a.gpu.launch(sender)
    hr = cluster.b.gpu.launch(receiver)
    with pytest.raises(RetryExhaustedError, match="channel 0->1") as info:
        sim.run_until_complete(hs, hr, limit=1e-3)
    assert "rel.0->1.tx" in str(info.value.__cause__)
    assert fwd.reliability.snapshot()["exhausted"] == 1
