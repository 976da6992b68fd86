"""MPI-layer benchmarks: tagged ping-pong and triggered iallreduce.

Two measurements, both returning LatencyPoints plus the NIC's own control-
path counters so invariants can be checked against hardware truth instead
of model bookkeeping:

* :func:`run_mpi_pingpong` — tagged eager/rendezvous ping-pong across a
  size sweep; the protocol crossover at ``eager_threshold`` must show up in
  the per-size ``rndv_sent`` counts.
* :func:`run_mpi_allreduce` — the triggered-chain ``iallreduce``, measured
  per round with ``phase`` spans so span totals, the LatencyPoint, and the
  chain counters reconcile three ways (the engine CLI's verification
  pattern applied to this layer).
* :func:`run_mode_allreduce_mmio` — the collectives stack in any of
  its three control modes, counting what its control path pushes through
  the BAR, for the host-assist-vs-triggered ablation; and
  :func:`engine_floor_checks`, which judges both sides of that ablation
  against the offload engine's batched-doorbell floor.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from ..analysis import invariants as inv
from ..cluster import build_extoll_cluster
from ..collectives.algorithms import max_message_bytes, messages_per_round
from ..collectives.bench import build_communicator, run_collective, vector
from ..collectives.comm import CollectiveMode
from ..core.results import LatencyPoint
from ..engine import batched_mmio_floor
from ..errors import MpiError
from ..obs.export import phase_breakdown
from ..obs.tracer import SpanTracer
from ..sim import NULL_SPAN, Simulator
from .collectives import iallreduce
from .comm import MpiCommunicator, MpiConfig

_LIMIT = 600.0


@dataclasses.dataclass(frozen=True)
class MpiPingPongResult:
    """One ping-pong size point."""

    size: int
    iterations: int
    point: LatencyPoint
    eager_sent: int
    rndv_sent: int
    bar_mmio: int              # WR posts + doorbells of any kind

    @property
    def protocol(self) -> str:
        return "rendezvous" if self.rndv_sent else "eager"


@dataclasses.dataclass(frozen=True)
class MpiAllreduceResult:
    """One measured iallreduce configuration."""

    nodes: int
    size: int
    iterations: int
    point: LatencyPoint
    chains_fired: int
    descriptors_fired: int
    bar_mmio: int
    correct: bool
    reconcile: Dict[str, object]
    algorithm: str = "ring"


def _build(num_nodes: int, seed: int, config: MpiConfig,
           tracer: Optional[SpanTracer]):
    sim = Simulator(seed=seed, tracer=tracer)
    cluster = build_extoll_cluster(
        sim=sim, num_nodes=num_nodes,
        topology="pair" if num_nodes == 2 else "ring")
    return MpiCommunicator(cluster, config=config)


def _bar_mmio(delta: Dict[str, int]) -> int:
    return (delta["host_wr_posts"] + delta["batch_doorbells"]
            + delta["trigger_doorbells"])


def run_mpi_pingpong(size: int, iterations: int = 8, warmup: int = 2,
                     seed: int = 11, config: Optional[MpiConfig] = None,
                     tracer: Optional[SpanTracer] = None) -> MpiPingPongResult:
    """Half-round-trip latency of a tagged 2-rank ping-pong at ``size``."""
    if size < 1 or iterations < 1 or warmup < 0:
        raise MpiError("need size >= 1, iterations >= 1, warmup >= 0")
    config = config or MpiConfig()
    comm = _build(2, seed, config, tracer)
    r0, r1 = comm.ranks
    trc = comm.sim.tracer
    payload = bytes(i & 0xFF for i in range(size))
    before = comm.snapshot()
    start = None
    for i in range(iterations + warmup):
        measured = i >= warmup
        if measured and start is None:
            start = comm.sim.now
        span = (trc.begin("phase", "pingpong", track="mpi", iter=i)
                if trc.enabled and measured else NULL_SPAN)
        ping = [r0.isend(1, payload, tag=1), r1.irecv(source=0, tag=1)]
        comm.wait(*ping, limit=_LIMIT)
        pong = [r1.isend(0, ping[1].data, tag=2), r0.irecv(source=1, tag=2)]
        comm.wait(*pong, limit=_LIMIT)
        span.end()
        if pong[1].data != payload:
            raise MpiError(f"ping-pong payload mismatch at {size} B")
    elapsed = comm.sim.now - start
    delta = comm.diff(before)
    return MpiPingPongResult(
        size=size, iterations=iterations,
        point=LatencyPoint(size=size, latency=elapsed / (2 * iterations)),
        eager_sent=delta["eager_sent"], rndv_sent=delta["rndv_sent"],
        bar_mmio=_bar_mmio(delta))


def run_mpi_allreduce(nodes: int, size: int, iterations: int = 4,
                      warmup: int = 1, seed: int = 11,
                      tracer: Optional[SpanTracer] = None,
                      algorithm: str = "ring") -> MpiAllreduceResult:
    """Measured triggered-chain iallreduce rounds, with a three-way
    reconcile: NIC chain counters vs ``phase`` span totals vs the
    LatencyPoint must agree under the shared 1% rule.  ``algorithm``
    picks the staged schedule (``ring``/``rh``/``tree``); the non-ring
    schedules exchange with ``rank ^ dist`` partners and so wire
    all-pairs connectivity with slots sized for their largest message."""
    if nodes < 2 or size < 8 or size % 8:
        raise MpiError("need nodes >= 2 and a size that is a multiple of 8")
    slot = max(512, max_message_bytes(algorithm, nodes, nodes * size) + 64)
    connectivity = ("full" if algorithm != "ring" or nodes == 2
                    else "ring")
    config = MpiConfig(eager_threshold=slot - 64, slot_size=slot,
                       connectivity=connectivity)
    comm = _build(nodes, seed, config, tracer)
    trc = comm.sim.tracer
    vectors = [vector(r, nodes, size) for r in range(nodes)]
    expected = [sum(col) for col in zip(*vectors)]
    before = comm.snapshot()
    start = None
    correct = True
    measured_rounds = 0
    for i in range(iterations + warmup):
        measured = i >= warmup
        if measured and start is None:
            start = comm.sim.now
        span = (trc.begin("phase", "iallreduce", track="mpi", iter=i)
                if trc.enabled and measured else NULL_SPAN)
        reqs = [iallreduce(comm, rank, vectors[rank.rank],
                           algorithm=algorithm)
                for rank in comm.ranks]
        comm.wait(*reqs, limit=_LIMIT)
        span.end()
        if measured:
            measured_rounds += 1
        for req in reqs:
            if any(abs(a - b) > 1e-9 * max(1.0, abs(b))
                   for a, b in zip(req.data, expected)):
                correct = False
    elapsed = comm.sim.now - start
    delta = comm.diff(before)
    point = LatencyPoint(size=size, latency=elapsed / iterations)

    # Three-way reconcile: chains the units say fired vs the chain count
    # the schedule implies, and traced span time vs the timed elapsed.
    expected_chains = (messages_per_round(algorithm, nodes)
                       * (iterations + warmup))
    reconcile: Dict[str, object] = {
        "chains": {"observed": delta["chains_fired"],
                   "expected": expected_chains,
                   "rel_err": inv.relative_error(delta["chains_fired"],
                                                 expected_chains),
                   "ok": inv.reconciles("chains", delta["chains_fired"],
                                        expected_chains).ok},
    }
    if trc is not None and trc.enabled:
        stat = phase_breakdown(trc).get("iallreduce")
        traced = stat.total if stat else 0.0
        expected_total = point.latency * measured_rounds
        reconcile["spans"] = {
            "traced": traced, "expected": expected_total,
            "rel_err": inv.relative_error(traced, expected_total),
            "ok": inv.reconciles("spans", traced, expected_total).ok}
    reconcile["ok"] = all(v["ok"] for k, v in reconcile.items()
                          if isinstance(v, dict))
    return MpiAllreduceResult(
        nodes=nodes, size=size, iterations=iterations, point=point,
        chains_fired=delta["chains_fired"],
        descriptors_fired=delta["descriptors_fired"],
        bar_mmio=_bar_mmio(delta), correct=correct, reconcile=reconcile,
        algorithm=algorithm)


def run_mode_allreduce_mmio(mode: CollectiveMode, nodes: int, size: int,
                            iterations: int = 4, warmup: int = 1,
                            seed: int = 11) -> Dict[str, object]:
    """PR 2's all-reduce in one control mode, with the NIC's count of what
    the control path pushed through the BAR (single WR posts + batched
    doorbells) — the host-assist numbers the triggered layer is up against.
    """
    sim = Simulator(seed=seed)
    cluster, comm = build_communicator(nodes, size, mode, sim=sim)
    result = run_collective(cluster, comm, "all-reduce", size,
                            iterations=iterations, warmup=warmup)
    mmio = sum(node.nic.wr_posts + node.nic.batch_doorbells
               + node.nic.trigger_doorbells for node in cluster.nodes)
    wrs = sum(node.nic.wr_posts + node.nic.batch_descriptors
              for node in cluster.nodes)
    return {"mode": mode.value, "latency_us": result.point.latency_us,
            "correct": result.correct, "bar_mmio": mmio, "wrs_posted": wrs}


def engine_floor_checks(triggered_mmio: int, modes: List[Dict[str, object]],
                        ) -> Tuple[int, inv.Check, inv.Check]:
    """The offload engine's batched-doorbell floor (batches of 8) for the
    host-assist modes' WR count, and both checks against it: the triggered
    path's BAR MMIO at or below the floor, and every host-assist mode's
    above it.  ``modes`` are :func:`run_mode_allreduce_mmio` results."""
    floor = min(batched_mmio_floor(m["wrs_posted"], 8) for m in modes)
    below = inv.at_most(triggered_mmio, floor, "triggered MMIO",
                        "batched floor")
    above = (all(m["bar_mmio"] > floor for m in modes),
             f"host-assist BAR MMIO vs batched floor {floor}: "
             + ", ".join(f"{m['mode']} {m['bar_mmio']}" for m in modes))
    return floor, below, above


def pingpong_sweep(sizes: List[int], iterations: int = 8, warmup: int = 2,
                   seed: int = 11,
                   config: Optional[MpiConfig] = None
                   ) -> List[MpiPingPongResult]:
    """Fresh communicator per size so points never share warmed state."""
    return [run_mpi_pingpong(size, iterations=iterations, warmup=warmup,
                             seed=seed, config=config) for size in sizes]
