"""Benchmark driver for the collectives: build, run, time, verify.

One measurement launches the chosen operation on every rank for
``warmup + iterations`` rounds and reports

* a :class:`~repro.core.results.LatencyPoint` — elapsed time on rank 0 over
  the measured rounds, divided by ``iterations`` (one full operation),
* a :class:`~repro.core.results.BandwidthPoint` — total payload bytes all
  ranks injected during the measured rounds,
* the per-rank step count (``2*(N-1)`` for ring all-reduce — the scaling
  invariant), and
* a functional verdict: every rank's final result is checked against the
  exact expected value computed host-side.

When a :class:`~repro.obs.SpanTracer` is installed, rank 0 opens one
``phase``-category span per measured round, named after the operation.
Spans are opened/closed at the exact simulation times the latency
accumulator samples, so ``sum(span durations) == latency * iterations`` —
the reconciliation ``python -m repro collectives --trace`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..cluster import Cluster, build_extoll_cluster
from ..errors import BenchmarkError
from ..core.drive import run_measured
from ..core.results import BandwidthPoint, LatencyPoint
from ..sim import NULL_SPAN, Simulator
from .algorithms import (all_gather, all_reduce, barrier, broadcast,
                         halo_exchange, max_message_bytes)
from .comm import CollectiveMode, Communicator

#: Operations understood by :func:`run_collective` and the CLI.
OPS = ("barrier", "broadcast", "all-gather", "all-reduce", "all-reduce-rh",
       "all-reduce-tree", "halo")

#: The all-reduce ops and the schedule each runs.
ALLREDUCE_OPS = {"all-reduce": "ring", "all-reduce-rh": "rh",
                 "all-reduce-tree": "tree"}

#: Ops exchanging with ``rank ^ dist`` partners: need all-pairs channels.
FULL_CONNECTIVITY_OPS = ("all-reduce-rh", "all-reduce-tree")


def op_connectivity(op: str) -> str:
    return "full" if op in FULL_CONNECTIVITY_OPS else "ring"


def op_max_payload(op: str, nodes: int, size: int) -> int:
    """Largest single message ``op`` sends, for slot sizing: the
    all-reduce closed form over the ``nodes * size`` vector, else the
    ``size``-byte message every other schedule moves."""
    if op in ALLREDUCE_OPS:
        return max_message_bytes(ALLREDUCE_OPS[op], nodes, nodes * size)
    return size

#: The barrier circulates a fixed 8-byte token regardless of ``--size``.
_TOKEN_BYTES = 8


def _round8(n: int) -> int:
    return (n + 7) // 8 * 8


def pattern(rank: int, size: int) -> bytes:
    """A deterministic per-rank payload (distinct across ranks)."""
    return bytes((37 * rank + 11 * i + 5) % 251 for i in range(size))


def vector(rank: int, nodes: int, size: int):
    """A deterministic per-rank float64 vector of ``nodes * size/8``
    elements (``size`` bytes travel per all-reduce step)."""
    length = nodes * (size // 8)
    return [float((7 * rank + 3 * i + 1) % 97) for i in range(length)]


@dataclass
class _Timing:
    start: float = 0.0
    end: float = 0.0


@dataclass(frozen=True)
class CollectiveResult:
    """One (operation, mode, topology, N, size) measurement."""

    op: str
    mode: str
    topology: str
    nodes: int
    size: int                 # payload bytes per point-to-point message
    iterations: int
    point: LatencyPoint       # latency = one full operation
    bandwidth: BandwidthPoint
    steps: int                # p2p sends per rank per operation (max)
    correct: bool

    @property
    def latency_us(self) -> float:
        return self.point.latency * 1e6


def build_communicator(num_nodes: int, size: int,
                       mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
                       topology: str = "auto", slots: int = 16,
                       sim: Optional[Simulator] = None,
                       reliable: bool = False,
                       reliability_config=None,
                       connectivity: str = "ring",
                       max_payload: Optional[int] = None,
                       ) -> Tuple[Cluster, Communicator]:
    """An EXTOLL cluster plus a communicator whose slots fit ``size``-byte
    payloads.  ``reliable`` arms the retransmission engines of
    :mod:`repro.faults` on every channel (required to survive an attached
    :class:`~repro.faults.FaultPlan`); ``connectivity="full"`` wires every
    rank pair instead of the ring edges; ``max_payload`` widens the slots
    beyond ``size`` for schedules whose messages grow with N (see
    :func:`op_max_payload`)."""
    if size < 8 or size % 8:
        raise BenchmarkError(
            f"collective payload size must be a positive multiple of 8, "
            f"got {size}")
    cluster = build_extoll_cluster(sim=sim, num_nodes=num_nodes,
                                   topology=topology)
    slot_size = max(64, _round8(max_payload or size) + 8)
    comm = Communicator(cluster, mode, slot_size=slot_size, slots=slots,
                        reliable=reliable,
                        reliability_config=reliability_config,
                        connectivity=connectivity)
    return cluster, comm


def _op_script(op: str, rank: int, nodes: int, size: int):
    """One rank's op script for one ``op`` (validated as it is built)."""
    if op == "barrier":
        return barrier(rank, nodes)
    if op == "broadcast":
        return broadcast(rank, nodes, pattern(0, size) if rank == 0 else None)
    if op == "all-gather":
        return all_gather(rank, nodes, pattern(rank, size))
    if op == "halo":
        return halo_exchange(rank, nodes, pattern(rank, 2 * size), size)
    return all_reduce(ALLREDUCE_OPS[op], rank, nodes,
                      vector(rank, nodes, size))


def _verify(op: str, nodes: int, size: int, finals: Dict[int, object]) -> bool:
    """Exact host-side check of every rank's final result."""
    if sorted(finals) != list(range(nodes)):
        return False
    if op == "barrier":
        return all(v is None for v in finals.values())
    if op == "broadcast":
        root_data = pattern(0, size)
        return all(finals[r] == root_data for r in range(nodes))
    if op == "all-gather":
        expected = [pattern(k, size) for k in range(nodes)]
        return all(finals[r] == expected for r in range(nodes))
    if op in ALLREDUCE_OPS:
        vectors = [vector(r, nodes, size) for r in range(nodes)]
        expected = [sum(col) for col in zip(*vectors)]
        # Small integers summed in float64: equality is exact, but the
        # gather order is rank-dependent so allow rounding headroom.
        return all(len(finals[r]) == len(expected) and
                   all(abs(a - b) <= 1e-9 for a, b in
                       zip(finals[r], expected))
                   for r in range(nodes))
    if op == "halo":
        ok = True
        for r in range(nodes):
            left, right = finals[r]
            prev_interior = pattern((r - 1) % nodes, 2 * size)
            next_interior = pattern((r + 1) % nodes, 2 * size)
            ok = ok and left == prev_interior[-size:]
            ok = ok and right == next_interior[:size]
        return ok
    raise BenchmarkError(f"unknown collective op {op!r}")


def run_collective(cluster: Cluster, comm: Communicator, op: str, size: int,
                   iterations: int = 8, warmup: int = 2) -> CollectiveResult:
    """Run one measured collective; see the module docstring for what the
    returned :class:`CollectiveResult` carries."""
    if op not in OPS:
        raise BenchmarkError(f"unknown collective op {op!r} "
                             f"(choose from: {', '.join(OPS)})")
    if iterations < 1 or warmup < 0:
        raise BenchmarkError("need iterations >= 1 and warmup >= 0")
    total = iterations + warmup
    timing = _Timing()
    finals: Dict[int, object] = {}
    steps_seen: Dict[int, int] = {}
    trc = cluster.sim.tracer
    # Every round's scripts are built, and so validated, before any event.
    scripts = [[_op_script(op, rank, comm.size, size) for _ in range(total)]
               for rank in range(comm.size)]

    def body(ctx, rc):
        for i, script in enumerate(scripts[rc.rank], 1):
            if rc.rank == 0 and i == warmup + 1:
                timing.start = ctx.sim.now
            measured = trc.enabled and rc.rank == 0 and i > warmup
            span = (trc.begin("phase", op, track="collective", iter=i)
                    if measured else NULL_SPAN)
            sent = rc.sent
            finals[rc.rank] = yield from rc.run(ctx, script)
            span.end()
            steps_seen[rc.rank] = rc.sent - sent
        if rc.rank == 0:
            timing.end = ctx.sim.now

    run_measured(cluster, comm.launch(body), f"collective:{op}",
                 nodes=comm.size, size=size, mode=comm.mode.value,
                 iterations=iterations, warmup=warmup)

    elapsed = timing.end - timing.start
    point = LatencyPoint(size=size, latency=elapsed / iterations)
    msg_bytes = _TOKEN_BYTES if op == "barrier" else size
    if op in FULL_CONNECTIVITY_OPS:
        # Variable message sizes; both schedules move exactly
        # 2*(N-1)*V total bytes per operation (V = the full vector).
        moved = 2 * (comm.size - 1) * comm.size * size * iterations
    else:
        moved = sum(steps_seen.values()) * msg_bytes * iterations
    return CollectiveResult(
        op=op, mode=comm.mode.value, topology=cluster.topology,
        nodes=comm.size, size=size, iterations=iterations, point=point,
        bandwidth=BandwidthPoint(size=size, bytes_moved=moved,
                                 elapsed=elapsed),
        steps=max(steps_seen.values()),
        correct=_verify(op, comm.size, size, finals))


def sweep(ops, node_counts, sizes,
          mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
          topology: str = "auto", iterations: int = 8, warmup: int = 2):
    """The CLI's scaling sweep: a fresh cluster per (op, N, size) point so
    measurements never share warmed channels.  Yields CollectiveResults."""
    for op in ops:
        for nodes in node_counts:
            for size in sizes:
                cluster, comm = build_communicator(
                    nodes, size, mode, topology,
                    connectivity=op_connectivity(op),
                    max_payload=op_max_payload(op, nodes, size))
                yield run_collective(cluster, comm, op, size,
                                     iterations=iterations, warmup=warmup)


def render_results(results) -> str:
    """A fixed-width table of CollectiveResults."""
    header = ("op".ljust(17) + "mode".ljust(20) + "topo".ljust(8)
              + "N".rjust(3) + "size".rjust(7) + "steps".rjust(7)
              + "latency".rjust(12) + "MB/s".rjust(10) + "  ok")
    lines = [header, "-" * len(header)]
    for r in results:
        lines.append(
            r.op.ljust(17) + r.mode.ljust(20) + r.topology.ljust(8)
            + f"{r.nodes}".rjust(3) + f"{r.size}".rjust(7)
            + f"{r.steps}".rjust(7) + f"{r.latency_us:10.3f}us"
            + f"{r.bandwidth.mb_per_s:10.1f}"
            + ("   OK" if r.correct else "   FAIL"))
    return "\n".join(lines)
