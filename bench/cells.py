"""The benchmark's four workloads, each a list of cells.

A cell is one independent simulation: it builds its own simulator, calls
builders (timed as set-up) and drivers (timed as simulation) through the
recorder, and returns its modeled outputs.  Outputs are simulated
quantities only — latencies, counters, digests — never host-side work such
as event counts, so a change that only speeds up the simulator keeps every
output identical.  The host side is a closed loop: one cell runs at a time.

The seed feeds every ``Simulator`` and the open-loop arrival streams.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import invariants as inv
from repro.analysis.tables import (PAPER_SINGLE_OP, PAPER_TABLE1,
                                   PAPER_TABLE2, single_op_costs,
                                   table1_extoll_polling, table2_ib_buffers)
from repro.cluster import build_extoll_cluster, build_ib_cluster
from repro.core import (ExtollMode, IbMode, RateMethod, run_extoll_bandwidth,
                        run_extoll_message_rate, run_extoll_pingpong,
                        run_ib_bandwidth, run_ib_pingpong,
                        setup_extoll_connection, setup_extoll_connections,
                        setup_ib_connection)
from repro.extoll import ExtollNic
from repro.fabrics import FabricConfig, build_topology, instantiate
from repro.fabrics.collective import (expected_phases, expected_steps,
                                      run_collective)
from repro.sim import Simulator
from repro.units import KIB, MIB
from repro.workloads import WorkloadRun


@dataclass
class Outcome:
    outputs: Dict[str, object]   # compared exactly against the reference
    ok: bool = True              # the cell's own correctness check
    detail: str = ""
    #: Events the cell's simulators processed; None when the cell calls a
    #: program that builds simulators of its own.
    events: Optional[int] = None
    ops: int = 0                 # modeled put/get operations


Cell = Tuple[str, Callable]       # (cell id, fn(recorder) -> Outcome)
Check = Tuple[str, bool, str]     # (name, ok, detail)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: Callable[[int, bool], List[Cell]]          # (seed, smoke)
    checks: Callable[[Dict[str, Dict]], List[Check]]  # cell id -> outputs
    model_error: Optional[Callable[[Dict[str, Dict]], float]] = None


# -- modeled counters ---------------------------------------------------------

def cluster_counters(*clusters) -> Dict[str, int]:
    """Summed modeled counters of ``clusters``, put/get operations
    (``ops``) included."""
    out = dict.fromkeys(("gpu.instructions", "gpu.sysmem_reads",
                         "gpu.l2_read_hits", "gpu.l2_read_requests",
                         "pcie.bytes", "extoll.packets", "ib.packets",
                         "network.packets"), 0)
    ops = 0
    for cluster in clusters:
        for node in cluster.nodes:
            c = node.gpu.counters
            out["gpu.instructions"] += c.instructions_executed
            out["gpu.sysmem_reads"] += c.sysmem_read_transactions
            out["gpu.l2_read_hits"] += c.l2_read_hits
            out["gpu.l2_read_requests"] += c.l2_read_requests
            for port in node.pcie.ports.values():
                if port.link is not None:
                    out["pcie.bytes"] += (port.link.bytes_up
                                          + port.link.bytes_down)
            if isinstance(node.nic, ExtollNic):
                out["extoll.packets"] += node.nic.rma.packets_handled
                ops += node.nic.rma.puts_started + node.nic.rma.gets_started
            else:
                out["ib.packets"] += node.nic.packets_handled
                ops += node.nic.wqes_executed
        out["network.packets"] += sum(sum(link.packets_sent) for link in
                                      cluster.net.links().values())
    out["ops"] = ops
    return out


def _cluster_outcome(result: dict, sim: Simulator, *clusters) -> Outcome:
    counters = cluster_counters(*clusters)
    return Outcome({**result, **counters}, events=sim.events_processed,
                   ops=counters["ops"])


# -- paper-smallmsg -----------------------------------------------------------

def _ib_location(mode: IbMode) -> str:
    return "host" if mode is IbMode.BUF_ON_HOST else "gpu"


def _extoll_pingpong(rec, seed, mode, size, iterations, warmup):
    sim = Simulator(seed=seed)
    cluster = rec.setup("cluster", build_extoll_cluster, sim=sim)
    conn = rec.setup("connection", setup_extoll_connection, cluster, 4 * KIB)
    p = rec.drive(run_extoll_pingpong, cluster, conn, mode, size,
                  iterations=iterations, warmup=warmup)
    return _cluster_outcome({"latency": p.latency, "post_time": p.post_time,
                             "poll_time": p.poll_time}, sim, cluster)


def _ib_pingpong(rec, seed, mode, size, iterations, warmup):
    sim = Simulator(seed=seed)
    cluster = rec.setup("cluster", build_ib_cluster, sim=sim)
    conn = rec.setup("connection", setup_ib_connection, cluster, 4 * KIB,
                     _ib_location(mode))
    p = rec.drive(run_ib_pingpong, cluster, conn, mode, size,
                  iterations=iterations, warmup=warmup)
    return _cluster_outcome({"latency": p.latency, "post_time": p.post_time,
                             "poll_time": p.poll_time}, sim, cluster)


def _extoll_rate(rec, seed, method, connections, per_connection):
    sim = Simulator(seed=seed)
    cluster = rec.setup("cluster", build_extoll_cluster, sim=sim)
    conns = rec.setup("connection", setup_extoll_connections, cluster,
                      4 * KIB, connections)
    r = rec.drive(run_extoll_message_rate, cluster, conns, method,
                  per_connection=per_connection)
    out = _cluster_outcome({"messages": r.messages, "elapsed": r.elapsed},
                           sim, cluster)
    out.ok = r.messages == connections * per_connection
    out.detail = f"{r.messages} messages delivered"
    return out


def _table(rec, table, iterations):
    # The table programs build their own simulators, so their events are
    # not counted; each variant is a ping-pong of 2 puts per iteration.
    outputs = {}
    for report in rec.drive(table, iterations=iterations):
        for name, value in report.counters.as_dict().items():
            outputs[f"{report.label}.{name}"] = value
    return Outcome(outputs, ops=2 * 2 * iterations)


def _table1(rec, iterations):
    out = _table(rec, table1_extoll_polling, iterations)
    reads = out.outputs["device memory.sysmem_read_transactions"]
    writes = out.outputs["device memory.sysmem_write_transactions"]
    # §V-A3: polling device memory reads no system memory and writes
    # exactly the 3 x 64-bit work request per iteration.
    out.ok = reads == 0 and writes == 3 * iterations
    out.detail = (f"device-memory polling: {reads} sysmem reads, {writes} "
                  f"sysmem writes")
    return out


def _single_op(rec):
    costs = rec.drive(single_op_costs)
    ok = all(costs[k] == v for k, v in PAPER_SINGLE_OP.items())
    return Outcome(dict(costs), ok=ok, detail=f"instructions {costs}", ops=2)


def _smallmsg_cells(seed: int, smoke: bool) -> List[Cell]:
    iterations, warmup = (2, 0) if smoke else (10, 1)
    connections, per_connection = (2, 2) if smoke else (16, 15)
    table_iterations = 5 if smoke else 100
    cells: List[Cell] = []
    for size in (64, 4 * KIB):
        for mode in ExtollMode:
            cells.append((f"pingpong/extoll/{mode.value}/{size}B",
                          partial(_extoll_pingpong, seed=seed, mode=mode,
                                  size=size, iterations=iterations,
                                  warmup=warmup)))
        for mode in IbMode:
            cells.append((f"pingpong/ib/{mode.value}/{size}B",
                          partial(_ib_pingpong, seed=seed, mode=mode,
                                  size=size, iterations=iterations,
                                  warmup=warmup)))
    for method in (RateMethod.BLOCKS, RateMethod.ASSISTED,
                   RateMethod.HOST_CONTROLLED):
        cells.append((f"rate/extoll/{method.value}",
                      partial(_extoll_rate, seed=seed, method=method,
                              connections=connections,
                              per_connection=per_connection)))
    cells.append(("table1", partial(_table1, iterations=table_iterations)))
    cells.append(("table2", partial(_table, table=table2_ib_buffers,
                                    iterations=table_iterations)))
    cells.append(("single-op", _single_op))
    return cells


def _smallmsg_checks(out) -> List[Check]:
    def lat(fabric, mode):
        return out[f"pingpong/{fabric}/{mode.value}/64B"]["latency"]

    return [
        ("fig1a-2x-gap", *inv.two_x_gap(
            lat("extoll", ExtollMode.DIRECT),
            lat("extoll", ExtollMode.HOST_CONTROLLED))),
        ("fig3-devmem-poll-beats-sysmem", *inv.faster_than(
            lat("extoll", ExtollMode.POLL_ON_GPU),
            lat("extoll", ExtollMode.DIRECT), "pollOnGPU", "direct")),
        ("fig4a-gpu-buffers-beat-host-buffers", *inv.faster_than(
            lat("ib", IbMode.BUF_ON_GPU), lat("ib", IbMode.BUF_ON_HOST),
            "bufOnGPU", "bufOnHost")),
    ]


def model_error_pct(out) -> float:
    """Median |sim - paper| / paper, in percent, over every Table I/II
    counter and §V-B3 instruction count the paper reports as non-zero."""
    errors = []
    for cell, paper in (("table1", PAPER_TABLE1), ("table2", PAPER_TABLE2)):
        for label, counters in paper.items():
            for name, ref in counters.items():
                if ref:
                    sim = out[cell][f"{label}.{name}"]
                    errors.append(abs(sim - ref) / ref)
    for name, ref in PAPER_SINGLE_OP.items():
        errors.append(abs(out["single-op"][name] - ref) / ref)
    return 100.0 * statistics.median(errors)


# -- paper-bandwidth ----------------------------------------------------------

_BW_EXTOLL = (ExtollMode.DIRECT, ExtollMode.HOST_CONTROLLED)
_BW_IB = (IbMode.BUF_ON_GPU, IbMode.HOST_CONTROLLED)


def _extoll_stream(rec, seed, mode, size, count):
    sim = Simulator(seed=seed)
    cluster = rec.setup("cluster", build_extoll_cluster, sim=sim)
    conn = rec.setup("connection", setup_extoll_connection, cluster, size)
    p = rec.drive(run_extoll_bandwidth, cluster, conn, mode, size,
                  count=count)
    out = _cluster_outcome({"bytes_moved": p.bytes_moved,
                            "elapsed": p.elapsed}, sim, cluster)
    out.ok = p.bytes_moved == size * count
    out.detail = f"{p.bytes_moved} bytes moved"
    return out


def _ib_stream(rec, seed, mode, size, count):
    sim = Simulator(seed=seed)
    cluster = rec.setup("cluster", build_ib_cluster, sim=sim)
    conn = rec.setup("connection", setup_ib_connection, cluster, size,
                     _ib_location(mode))
    p = rec.drive(run_ib_bandwidth, cluster, conn, mode, size, count=count)
    out = _cluster_outcome({"bytes_moved": p.bytes_moved,
                            "elapsed": p.elapsed}, sim, cluster)
    out.ok = p.bytes_moved == size * count
    out.detail = f"{p.bytes_moved} bytes moved"
    return out


def _bandwidth_sizes(smoke: bool) -> Tuple[int, ...]:
    return (256 * KIB, 2 * MIB) if smoke else (256 * KIB, 1 * MIB, 4 * MIB)


def _bandwidth_cells(seed: int, smoke: bool) -> List[Cell]:
    count = 1 if smoke else 3
    cells: List[Cell] = []
    for size in _bandwidth_sizes(smoke):
        for mode in _BW_EXTOLL:
            cells.append((f"bandwidth/extoll/{mode.value}/{size}B",
                          partial(_extoll_stream, seed=seed, mode=mode,
                                  size=size, count=count)))
        for mode in _BW_IB:
            cells.append((f"bandwidth/ib/{mode.value}/{size}B",
                          partial(_ib_stream, seed=seed, mode=mode,
                                  size=size, count=count)))
    return cells


def _bandwidth_checks(out) -> List[Check]:
    prefix = f"bandwidth/extoll/{ExtollMode.DIRECT.value}/"
    curve = [(int(cell[len(prefix):-1]), o["bytes_moved"] / o["elapsed"] / 1e6)
             for cell, o in out.items() if cell.startswith(prefix)]
    return [("fig1b-large-message-drop",
             *inv.bandwidth_drops_after_peak(curve))]


# -- fabric-allreduce-64 ------------------------------------------------------

_TOPOLOGIES = ("fat-tree", "torus", "dragonfly")
_ALGORITHMS = ("ring", "rh", "tree")


def _allreduce(rec, seed, kind, algorithm, n):
    sim = Simulator(seed=seed)
    topo = rec.setup("fabric", build_topology, kind, n)
    fabric = rec.setup("fabric", instantiate, sim, topo,
                       FabricConfig(credits=4))
    r = rec.drive(run_collective, fabric, algorithm, elems_per_rank=4,
                  iterations=1)
    link_packets = sum(a + b for a, b in r.link_packets.values())
    steps_ok = (r.steps == expected_steps(algorithm, n)
                and r.phases == expected_phases(algorithm, n))
    return Outcome(
        {"times": r.times, "steps": r.steps, "phases": r.phases,
         "digest": r.digest.hex(), "network.packets": link_packets,
         "fabrics.packets": r.packets, "fabrics.credit_stalls": r.stalls,
         "fabrics.credit_stall_us": r.stall_time * 1e6},
        ok=r.correct and steps_ok,
        detail=f"sums {'exact' if r.correct else 'WRONG'}, steps {r.steps} "
               f"(closed form {expected_steps(algorithm, n)})",
        events=sim.events_processed, ops=r.packets)


def _fabric_cells(seed: int, smoke: bool) -> List[Cell]:
    n = 16 if smoke else 64
    return [(f"allreduce/{kind}/{algorithm}",
             partial(_allreduce, seed=seed, kind=kind, algorithm=algorithm,
                     n=n))
            for kind in _TOPOLOGIES for algorithm in _ALGORITHMS]


def _fabric_checks(out) -> List[Check]:
    checks = []
    for kind in _TOPOLOGIES:
        digests = {out[f"allreduce/{kind}/{a}"]["digest"]
                   for a in _ALGORITHMS}
        checks.append((f"{kind}-bit-exact-across-schedules",
                       len(digests) == 1,
                       f"{len(digests)} distinct result digests"))
    return checks


# -- service-openloop ---------------------------------------------------------

_SERVICES = (("trainstep", "engine"), ("moe", "hostControlled"),
             ("kvcache", "mpi"))
#: Offered load of the open-loop phase, as a fraction of the service rate
#: the closed-loop calibration measured: loaded enough to queue, below the
#: knee so the backlog stays bounded.
_LOAD = 0.9


def _service(rec, seed, workload, mode, closed_requests, open_requests):
    calibration = rec.setup("workload", WorkloadRun, workload, mode,
                            nodes=4, size=256, requests=closed_requests,
                            loop="closed", seed=seed,
                            sim=Simulator(seed=seed))
    closed = rec.drive(calibration.execute)
    service = rec.setup("workload", WorkloadRun, workload, mode, nodes=4,
                        size=256, requests=open_requests, loop="open",
                        rate=_LOAD / closed.mean_service, seed=seed,
                        sim=Simulator(seed=seed))
    run = rec.drive(service.execute)
    counters = cluster_counters(calibration.cluster, service.cluster)
    outputs = {"closed.mean_service": closed.mean_service,
               "closed.p99": closed.p99,
               "open.rate": run.rate,
               "open.offered_measured": run.offered_measured,
               "open.achieved": run.achieved_rate,
               "open.elapsed": run.elapsed,
               "workloads.wait_us_mean": run.mean_wait * 1e6,
               "workloads.p99_us": run.p99 * 1e6, **counters}
    ok = closed.verified and run.verified and run.p99 >= closed.p99
    return Outcome(
        outputs, ok=ok,
        detail=f"verified closed={closed.verified} open={run.verified}; "
               f"open p99 {run.p99 * 1e6:.2f}us vs closed "
               f"{closed.p99 * 1e6:.2f}us",
        events=calibration.sim.events_processed
        + service.sim.events_processed, ops=counters["ops"])


def _service_cells(seed: int, smoke: bool) -> List[Cell]:
    closed_requests, open_requests = (2, 4) if smoke else (8, 32)
    return [(f"service/{workload}/{mode}",
             partial(_service, seed=seed, workload=workload, mode=mode,
                     closed_requests=closed_requests,
                     open_requests=open_requests))
            for workload, mode in _SERVICES]


# -- registry -----------------------------------------------------------------

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("paper-smallmsg", _smallmsg_cells, _smallmsg_checks,
             model_error_pct),
    Workload("paper-bandwidth", _bandwidth_cells, _bandwidth_checks),
    Workload("fabric-allreduce-64", _fabric_cells, _fabric_checks),
    Workload("service-openloop", _service_cells, lambda out: []),
)}
