"""The simulation must be deterministic: identical builds produce identical
results, event for event.  This is what makes the benchmark suite's shape
assertions trustworthy."""

from repro import build_extoll_cluster, build_ib_cluster
from repro.core import (
    ExtollMode,
    IbMode,
    RateMethod,
    run_extoll_message_rate,
    run_extoll_pingpong,
    run_ib_pingpong,
    setup_extoll_connection,
    setup_extoll_connections,
    setup_ib_connection,
)
from repro.units import KIB


def test_extoll_pingpong_bitwise_repeatable():
    results = []
    for _ in range(2):
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, 4 * KIB)
        p = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, 1 * KIB,
                                iterations=6, warmup=1)
        results.append((p.latency, p.post_time, p.poll_time))
    assert results[0] == results[1]


def test_ib_pingpong_bitwise_repeatable():
    results = []
    for _ in range(2):
        cluster = build_ib_cluster()
        conn = setup_ib_connection(cluster, 4 * KIB)
        p = run_ib_pingpong(cluster, conn, IbMode.BUF_ON_GPU, 256,
                            iterations=6, warmup=1)
        results.append(p.latency)
    assert results[0] == results[1]


def test_message_rate_bitwise_repeatable():
    results = []
    for _ in range(2):
        cluster = build_extoll_cluster()
        conns = setup_extoll_connections(cluster, 4 * KIB, 4)
        r = run_extoll_message_rate(cluster, conns, RateMethod.BLOCKS,
                                    per_connection=20)
        results.append(r.elapsed)
    assert results[0] == results[1]


def test_faulted_run_bitwise_repeatable():
    """Fault injection is seeded: the same (simulator seed, plan seed) must
    reproduce the same drops, the same retransmissions, and the same
    trace, event for event."""
    from repro.analysis.faults import run_chaos_point
    from repro.collectives.comm import CollectiveMode
    from repro.obs import SpanTracer
    from repro.obs.export import chrome_trace_events

    def run():
        tracer = SpanTracer()
        point, _, injector = run_chaos_point(
            CollectiveMode.POLL_ON_GPU, 64, 0.05, corrupt=0.02, nodes=3,
            iterations=2, warmup=1, seed=11, tracer=tracer)
        counters = {name: (s.drops, s.corruptions)
                    for name, s in sorted(injector.states.items())}
        return point, counters, chrome_trace_events(tracer)

    p1, counters1, trace1 = run()
    p2, counters2, trace2 = run()
    assert p1 == p2
    assert p1.drops + p1.corruptions > 0    # faults actually fired
    assert counters1 == counters2
    assert trace1 == trace2                 # byte-identical trace events


def test_different_seed_changes_fault_pattern():
    from repro.analysis.faults import run_chaos_point
    from repro.collectives.comm import CollectiveMode

    def run(seed):
        point, _, _ = run_chaos_point(
            CollectiveMode.POLL_ON_GPU, 64, 0.05, corrupt=0.02, nodes=3,
            iterations=2, warmup=1, seed=seed)
        return point.latency, point.retransmits, point.drops

    runs = {run(seed) for seed in (11, 12, 13)}
    assert len(runs) > 1    # the seed genuinely steers the fault stream


def test_counters_bitwise_repeatable():
    counter_dumps = []
    for _ in range(2):
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, 4 * KIB)
        run_extoll_pingpong(cluster, conn, ExtollMode.POLL_ON_GPU, 1 * KIB,
                            iterations=10, warmup=0)
        counter_dumps.append(conn.a.node.gpu.counters.as_dict())
    assert counter_dumps[0] == counter_dumps[1]


def test_trace_file_does_not_depend_on_earlier_runs():
    """Packet ids count per simulator and PCIe tags per link, so a traced
    run writes the same Chrome trace whatever ran before it in the
    process."""
    import io

    from repro.core import measure_message_rate
    from repro.engine import EngineConfig
    from repro.obs import SpanTracer
    from repro.obs.export import write_chrome_trace
    from repro.sim import Simulator

    def traced(tracer=None):
        measure_message_rate(EngineConfig.all_on(), 4, 8,
                             sim=Simulator(seed=7, tracer=tracer))
        return tracer and write_chrome_trace(tracer, io.StringIO())

    first = traced(SpanTracer())
    traced()
    assert traced(SpanTracer()) == first
