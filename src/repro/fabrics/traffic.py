"""Adversarial traffic: the permutation deadlock and replay canaries.

Full permutation traffic — every host streams to a distinct destination,
every host is a destination — is the classic stressor for credit-based
fabrics: if the VC scheme leaves a cyclic channel dependency, finite
credits wedge the whole fabric.  The simulator turns that into a
*detectable* verdict: a wedged run drains the event heap with processes
still live and :class:`~repro.errors.SimulationError`-family
``DeadlockError`` fires, rather than hanging.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from ..errors import SimulationError
from .collective import FabricHost
from .routing import FabricInstance


def permutation(n: int, seed: int) -> Dict[int, int]:
    """A seeded fixed-point-free permutation of ``range(n)``."""
    rng = random.Random(seed)
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(perm[i] != i for i in range(n)):
            return {i: perm[i] for i in range(n)}


@dataclass
class TrafficResult:
    completed: bool
    deadlocked: bool
    time: float
    stalls: int


def run_permutation(instance: FabricInstance, messages: int = 4,
                    payload: int = 256, seed: int = 1) -> TrafficResult:
    """Every host sends ``messages`` packets to its permutation partner
    and drains the same count from its inverse partner."""
    sim = instance.sim
    n = instance.n
    perm = permutation(n, seed)
    inverse = {dst: src for src, dst in perm.items()}
    hosts = [FabricHost(instance, r) for r in range(n)]
    done = [0]

    def body(rank: int):
        dst = perm[rank]
        src = inverse[rank]
        for _ in range(messages):
            yield from hosts[rank].send(dst, bytes(payload))
        for _ in range(messages):
            yield from hosts[rank].recv(src)
        done[0] += 1

    procs = [sim.process(body(r), name=f"perm.r{r}") for r in range(n)]
    deadlocked = False
    try:
        # A cyclic credit dependency drains the heap with senders still
        # blocked -> DeadlockError.
        sim.run_until_complete(*procs)
    except SimulationError:
        deadlocked = True
    return TrafficResult(
        completed=done[0] == n, deadlocked=deadlocked, time=sim.now,
        stalls=int(instance.flow_stats()["stalls"]))


__all__ = ["TrafficResult", "permutation", "run_permutation"]
