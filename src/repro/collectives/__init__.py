"""GPU-initiated collective operations over put/get (§VIII future work).

The paper measures point-to-point put/get between two thread-collaborative
processors; this package grows that into N-node collectives built ON TOP of
the measured primitives: ring channels from :mod:`repro.core.msglib`, the
device-side RMA API of :mod:`repro.core.gpu_rma`, and the host-side API of
:mod:`repro.extoll.api`, over any :mod:`repro.cluster` topology.

* :mod:`~repro.collectives.comm` — :class:`Communicator` /
  :class:`RankComm`: ring channels, mode-dispatched send/recv.
* :mod:`~repro.collectives.algorithms` — every collective schedule as a
  transport-free op script: barrier, broadcast, all-gather, halo
  exchange, and ring / recursive-halving / binomial-tree all-reduce, with
  the reduction table and the schedules' closed forms.
* :mod:`~repro.collectives.bench` — the measured driver behind
  ``python -m repro collectives``.
"""

from .algorithms import all_gather, all_reduce, barrier, broadcast, halo_exchange
from .bench import (
    OPS,
    CollectiveResult,
    build_communicator,
    render_results,
    run_collective,
)
from .comm import CollectiveMode, Communicator, RankComm, collective_mode

__all__ = [
    "CollectiveMode", "Communicator", "RankComm", "collective_mode",
    "barrier", "broadcast", "all_gather", "all_reduce", "halo_exchange",
    "OPS", "CollectiveResult", "build_communicator", "run_collective",
    "render_results",
]
