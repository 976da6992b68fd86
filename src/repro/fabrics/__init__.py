"""Scale-out fabrics: hierarchical topologies, credit-based congestion,
adaptive routing, and topology-aware collectives at N=64-512.

The paper's testbed is two nodes; this package grows the point-to-point
:mod:`repro.network` layer into service-scale fabrics so the collectives
and MPI layers can show where the PR 2 ring all-reduce breaks and
tree / recursive-halving schedules win:

* :mod:`~repro.fabrics.topology` — deterministic k-ary fat-tree,
  dragonfly, and 2D/3D torus builders emitting node/switch graphs,
* :mod:`~repro.fabrics.routing` — per-packet routing policies
  (dimension-order, up/down, minimal + Valiant/UGAL adaptive) on a
  :class:`~repro.network.RouterEndpoint` subclass,
* :mod:`~repro.fabrics.collective` — :class:`FabricHost`, the packet-level
  interpreter that runs the ring / binomial-tree / recursive-halving
  all-reduce scripts of :mod:`repro.collectives.algorithms`,
* :mod:`~repro.fabrics.traffic` — permutation traffic for the deadlock
  and replay canaries.

The ``fabric-allreduce`` and ``fabric-congestion`` scenarios
(:mod:`repro.perf.scenarios`) run the sweep and its checks; ``python -m
repro fabrics`` runs them on its grid and prints the crossover tables.
"""

from .topology import (FabricConfig, Topology, build_topology, dragonfly,
                       fat_tree, torus)
from .routing import FabricInstance, PolicyRouter, instantiate
from .collective import ALGORITHMS, FabricHost, run_collective
from .traffic import run_permutation

__all__ = [
    "ALGORITHMS",
    "FabricConfig",
    "FabricHost",
    "FabricInstance",
    "PolicyRouter",
    "Topology",
    "build_topology",
    "dragonfly",
    "fat_tree",
    "instantiate",
    "run_collective",
    "run_permutation",
    "torus",
]
