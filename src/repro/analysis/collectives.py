"""Scaling analysis of the N-node collectives (§VIII future-work direction).

Two invariants tie the N-node collectives back to the paper's measured
2-node primitives:

* **step scaling** — every all-reduce schedule must complete in exactly
  its closed-form step count per rank: ``2*(N-1)`` for the ring,
  ``2*log2 N`` for recursive halving/doubling, ``log2 N`` sends for the
  binomial tree (the closed forms of :mod:`repro.collectives.algorithms`,
  next to the schedules they describe).  The counts are *measured*
  (each rank counts its sends), not assumed.
* **per-step cost** — one all-reduce step is a msglib message: post a
  put, then detect arrival by polling device memory.  Its cost must stay
  within a small factor of the 2-node ``dev2dev-pollOnGPU`` ping-pong
  one-way latency at the same size — the collectives add pipelining and
  per-message msglib bookkeeping but no new mechanism, so a large
  deviation would mean the N-node path costs something the 2-node
  analysis never measured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..collectives import CollectiveMode, build_communicator, run_collective
from ..collectives.algorithms import expected_phases, expected_steps
from ..collectives.bench import ALLREDUCE_OPS, op_connectivity, op_max_payload
from ..core import ExtollMode, measure_pingpong


def step_message_bytes(algorithm: str, nodes: int, size: int) -> int:
    """Mean payload bytes one phase moves — the size the 2-node baseline
    ping-pong must run at for the per-step ratio to compare like with
    like.  The ring moves one ``size``-byte chunk per step; the tree
    moves the whole ``nodes * size`` vector every phase; halving/doubling
    averages its shrinking-then-growing windows."""
    if algorithm == "ring":
        return size
    vector_bytes = nodes * size
    if algorithm == "tree":
        return vector_bytes
    # rh: per-rank total is 2*V*(N-1)/N bytes over 2*log2 N phases.
    phases = expected_phases("rh", nodes)
    mean = 2 * vector_bytes * (nodes - 1) // nodes // phases
    return max(8, (mean + 7) // 8 * 8)

#: Node counts the scaling run sweeps.
SCALING_NODES = (2, 4, 8)

#: Per-message payload bytes used for the comparison.
SCALING_SIZE = 64

#: Accepted band for (all-reduce per-step latency) / (2-node ping-pong
#: one-way latency).  A step is put + device-memory poll exactly like a
#: ping-pong half round trip, but rides the msglib slot protocol (staging
#: stores, header, credit bookkeeping) and overlaps along the ring, so the
#: ratio sits above 1 without being allowed to run away.
STEP_RATIO_BAND = (0.5, 3.0)

#: Per-schedule bands.  The ring moves a fixed ``size``-byte chunk per
#: step, so msglib's per-word staging stores are a small constant on top
#: of the wire put.  The xor schedules move up-to-whole-vector payloads
#: per phase: ``gpu_stage_send`` stores one device word per 8 payload
#: bytes and puts the whole slot, a per-byte cost several times the raw
#: put's wire slope — so their ratio to the (wire-slope-only) ping-pong
#: baseline legitimately grows with N and needs the wider ceiling.
STEP_RATIO_BANDS = {
    "ring": STEP_RATIO_BAND,
    "rh": (0.5, 4.0),
    "tree": (0.5, 6.0),
}


@dataclass(frozen=True)
class ScalingPoint:
    """One all-reduce schedule at one node count vs the 2-node baseline."""

    nodes: int
    size: int
    steps: int                # measured sends per rank
    expected_steps: int       # the schedule's closed form
    latency: float            # one full all-reduce (seconds)
    step_latency: float       # latency / synchronous phase count
    baseline_one_way: float   # 2-node ping-pong one-way latency at the
                              # schedule's per-phase message size (seconds)
    correct: bool             # numerics checked against exact sums
    algorithm: str = "ring"

    @property
    def step_ratio(self) -> float:
        return self.step_latency / self.baseline_one_way

    @property
    def steps_ok(self) -> bool:
        return self.steps == self.expected_steps

    @property
    def ratio_ok(self) -> bool:
        lo, hi = STEP_RATIO_BANDS.get(self.algorithm, STEP_RATIO_BAND)
        return lo <= self.step_ratio <= hi

    @property
    def ok(self) -> bool:
        return self.correct and self.steps_ok and self.ratio_ok


def pingpong_baseline(size: int = SCALING_SIZE, iterations: int = 8,
                      warmup: int = 2) -> float:
    """The 2-node ``dev2dev-pollOnGPU`` one-way latency at ``size``."""
    return measure_pingpong(ExtollMode.POLL_ON_GPU, size, iterations,
                            warmup).latency


def allreduce_scaling(node_counts: Sequence[int] = SCALING_NODES,
                      size: int = SCALING_SIZE,
                      mode: CollectiveMode = CollectiveMode.POLL_ON_GPU,
                      topology: str = "auto", iterations: int = 6,
                      warmup: int = 2,
                      algorithm: str = "ring") -> Tuple[ScalingPoint, ...]:
    """Measure one all-reduce schedule at every node count and pin each
    point to the 2-node ping-pong baseline.  ``algorithm`` selects the
    schedule (``ring``/``rh``/``tree``) and with it the closed-form step
    expectation."""
    op = {v: k for k, v in ALLREDUCE_OPS.items()}.get(algorithm)
    if op is None:
        raise ValueError(f"unknown all-reduce algorithm {algorithm!r} "
                         f"(choose from: "
                         f"{', '.join(sorted(ALLREDUCE_OPS.values()))})")
    baselines: Dict[int, float] = {}
    points = []
    for nodes in node_counts:
        # Baseline at the schedule's per-phase message size, cached by
        # size (the ring's is N-independent, so its sweep measures once).
        bas_size = step_message_bytes(algorithm, nodes, size)
        if bas_size not in baselines:
            baselines[bas_size] = pingpong_baseline(
                bas_size, iterations=iterations, warmup=warmup)
        # The xor-partner schedules exchange with distant ranks; on the
        # default physical ring they would pay multi-hop relay latency
        # the 2-node baseline never sees, so "auto" gives them the
        # all-pairs fabric their channel layout assumes.
        physical = topology
        if topology == "auto" and op_connectivity(op) == "full":
            physical = "full" if nodes > 2 else "auto"
        cluster, comm = build_communicator(
            nodes, size, mode, physical,
            connectivity=op_connectivity(op),
            max_payload=op_max_payload(op, nodes, size))
        result = run_collective(cluster, comm, op, size,
                                iterations=iterations, warmup=warmup)
        phases = expected_phases(algorithm, nodes)
        points.append(ScalingPoint(
            nodes=nodes, size=size, steps=result.steps,
            expected_steps=expected_steps(algorithm, nodes),
            latency=result.point.latency,
            step_latency=result.point.latency / phases,
            baseline_one_way=baselines[bas_size], correct=result.correct,
            algorithm=algorithm))
    return tuple(points)


def scaling_report(points: Sequence[ScalingPoint]) -> Dict[str, object]:
    """Aggregate verdict of one scaling sweep (the collectives scaling
    check of ``tests/collectives``)."""
    return {
        "points": list(points),
        "steps_ok": all(p.steps_ok for p in points),
        "numerics_ok": all(p.correct for p in points),
        "ratio_ok": all(p.ratio_ok for p in points),
        "ok": all(p.ok for p in points),
    }

