"""The uniform snapshot()/diff() stats protocol the sampler polls.

Every watchable stats object must expose: ``snapshot() -> {name: number}``
(flat, JSON-safe), ``diff(earlier)`` (counters delta'd, GAUGES passed
through as levels), and a ``GAUGES`` class attribute naming the
level-valued keys.
"""

import random

from repro.engine import EngineStats
from repro.faults.injector import FaultInjector, LinkFaultState
from repro.faults.plan import FaultPlan
from repro.sim import Simulator


def _link_state(sim):
    """A LinkFaultState off the wire: snapshot() only reads counters."""
    return LinkFaultState(sim, link=None, cfg=None, rng=random.Random(0))


def _check_protocol(obj):
    snap = obj.snapshot()
    assert isinstance(snap, dict) and snap
    assert all(isinstance(v, (int, float)) for v in snap.values())
    gauges = type(obj).GAUGES
    assert set(gauges) <= set(snap)
    # diff against one's own snapshot: counters go to zero, gauges keep
    # their level.
    d = obj.diff(snap)
    for key, value in d.items():
        assert value == (snap[key] if key in gauges else 0), key
    return snap


def test_engine_stats_protocol():
    stats = EngineStats(messages=10, wrs=12, doorbells=3, inflight=4)
    snap = _check_protocol(stats)
    assert snap["messages"] == 10 and snap["inflight"] == 4

    stats.messages += 5
    stats.inflight = 2
    d = stats.diff(snap)
    assert d["messages"] == 5        # counter: windowed delta
    assert d["inflight"] == 2        # gauge: current level, not 2 - 4
    assert d["doorbells"] == 0


def test_fault_injector_protocol_counts_links_down():
    sim = Simulator()
    injector = FaultInjector(sim, FaultPlan.none())
    injector.states["0-1"] = s01 = _link_state(sim)
    injector.states["1-2"] = s12 = _link_state(sim)
    snap = _check_protocol(injector)
    assert snap["links_down"] == 0

    s01.drops = 3
    s12.drops = 2
    s12.down_depth = 1               # link currently down
    d = injector.diff(snap)
    assert d["drops"] == 5
    assert d["links_down"] == 1      # gauge: one link currently down


def test_link_fault_state_snapshot_is_flat():
    state = _link_state(Simulator())
    state.drops, state.delays, state.down_depth = 2, 1, 1
    snap = state.snapshot()
    assert snap["drops"] == 2 and snap["delays"] == 1
    assert snap["up"] == 0           # bool rendered as a 0/1 gauge level


def test_communicator_protocol_aggregates_reliability():
    from repro.collectives import Communicator
    from repro.collectives.bench import build_communicator

    assert Communicator.GAUGES == ("outstanding",)
    sim = Simulator(seed=3)
    _cluster, comm = build_communicator(2, 64, sim=sim, reliable=True)
    snap = _check_protocol(comm)
    for key in ("retransmits", "timeouts", "ack_replays", "exhausted",
                "outstanding"):
        assert key in snap


def test_channel_reliability_protocol():
    from repro.collectives.bench import build_communicator

    _cluster, comm = build_communicator(2, 64, sim=Simulator(seed=3),
                                        reliable=True)
    assert comm.reliability_engines
    for engine in comm.reliability_engines:
        assert "outstanding" in _check_protocol(engine)


def test_mpi_protocols():
    """The communicator's aggregate, each rank's matching queues and each
    node's triggered unit."""
    from repro.cluster import build_extoll_cluster
    from repro.mpi.comm import MpiCommunicator

    comm = MpiCommunicator(build_extoll_cluster(sim=Simulator(seed=3)))
    assert "posted_depth" in _check_protocol(comm)
    for rank in comm.ranks:
        _check_protocol(rank.matcher)
    for unit in comm.units:
        assert "armed" in _check_protocol(unit.stats)


def test_workload_stats_protocol():
    from repro.workloads.generator import WorkloadStats

    stats = WorkloadStats(issued=5, completed=3, queue_depth=2, inflight=1)
    snap = _check_protocol(stats)
    stats.completed += 2
    stats.queue_depth = 0
    d = stats.diff(snap)
    assert d["completed"] == 2       # counter: windowed delta
    assert d["queue_depth"] == 0     # gauge: current level


def test_one_diff_for_every_stats_class():
    """Every stats class the sampler polls inherits the one ``diff``."""
    from repro.collectives import Communicator
    from repro.faults.reliability import ChannelReliability
    from repro.mpi.comm import MpiCommunicator
    from repro.mpi.match import MatchEngine
    from repro.sim import SampledStats
    from repro.triggered.unit import TriggeredStats
    from repro.workloads.generator import WorkloadStats

    for cls in (EngineStats, Communicator, ChannelReliability, FaultInjector,
                MatchEngine, MpiCommunicator, WorkloadStats, TriggeredStats):
        assert issubclass(cls, SampledStats), cls
        assert "diff" not in vars(cls), cls
