"""The engine proxy under the Fig. 2 message-rate experiment."""

import pytest

from repro import build_extoll_cluster
from repro.analysis import invariants as inv
from repro.core import setup_extoll_connections
from repro.core.message_rate import MESSAGE_BYTES, run_extoll_message_rate
from repro.core.modes import RateMethod
from repro.engine import EngineConfig, aggregate_schedule, run_engine_message_rate
from repro.sim import Simulator
from repro.units import KIB

N_CONNS = 4
PER_CONN = 30
BUF = 16 * KIB


def fresh_extoll(seed=7):
    cluster = build_extoll_cluster(sim=Simulator(seed=seed))
    return cluster, setup_extoll_connections(cluster, BUF, N_CONNS)


# -- aggregation schedule -----------------------------------------------------

@pytest.mark.quick
def test_aggregate_schedule_merges_and_conserves_bytes():
    sizes = aggregate_schedule(30, MESSAGE_BYTES, 256)
    assert sum(sizes) == 30 * MESSAGE_BYTES
    assert sizes == [256] * 7 + [128]       # runs of four, partial tail


@pytest.mark.quick
def test_aggregate_schedule_disabled_is_identity():
    assert aggregate_schedule(5, 64, 0) == [64] * 5
    assert aggregate_schedule(5, 64, 64) == [64] * 5


# -- EXTOLL -------------------------------------------------------------------

def test_engine_all_on_beats_host_controlled():
    """The acceptance ordering at a modest connection count: one proxy
    block with every optimization armed out-rates the CPU proxy."""
    cluster, conns = fresh_extoll()
    host = run_extoll_message_rate(cluster, conns, RateMethod.HOST_CONTROLLED,
                                   per_connection=PER_CONN)
    cluster, conns = fresh_extoll()
    engine, _ = run_engine_message_rate(cluster, conns,
                                        per_connection=PER_CONN)
    assert engine.messages_per_s >= host.messages_per_s


def test_engine_stats_reconcile_with_hardware_counters():
    """Driver accounting vs the NIC: every WR and every doorbell the
    engine thinks it issued must show up in hardware, and the coalescing
    bound must hold."""
    cluster, conns = fresh_extoll()
    config = EngineConfig.all_on()
    point, stats = run_engine_message_rate(cluster, conns, config,
                                           per_connection=PER_CONN)
    nic = cluster.a.nic
    assert stats.messages == N_CONNS * PER_CONN == point.messages
    assert stats.wrs < stats.messages            # aggregation bit
    assert stats.doorbells < stats.wrs           # coalescing bit
    assert nic.batch_doorbells == stats.batches
    assert nic.batch_descriptors == stats.wrs
    ok, detail = inv.mmio_coalesced(stats.doorbells, stats.wrs,
                                    config.batch_size, stats.timeout_flushes,
                                    lanes=N_CONNS)
    assert ok, detail


def test_engine_baseline_issues_one_doorbell_per_message():
    cluster, conns = fresh_extoll()
    _, stats = run_engine_message_rate(cluster, conns,
                                       EngineConfig.baseline(),
                                       per_connection=PER_CONN)
    assert stats.wrs == stats.messages
    assert stats.doorbells == stats.wrs
    assert stats.batches == 0
    assert cluster.a.nic.batch_doorbells == 0    # classic trigger path


def test_priority_policy_completes_with_identical_totals():
    cluster, conns = fresh_extoll()
    config = EngineConfig(policy="priority", priorities=(3, 2, 1, 0))
    point, stats = run_engine_message_rate(cluster, conns, config,
                                           per_connection=PER_CONN)
    assert point.messages == stats.messages == N_CONNS * PER_CONN
    assert stats.wrs == cluster.a.nic.batch_descriptors
