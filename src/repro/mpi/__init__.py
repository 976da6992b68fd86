"""repro.mpi — a CPU-free MPI-shaped layer compiled onto triggered put/get.

Tagged nonblocking point-to-point (eager + rendezvous), deterministic
(source, tag, comm) matching, requests with test/wait/waitall, and
nonblocking collectives staged as chain DAGs — all driven by NIC-resident
counters and listeners, never by a host progress thread.
"""

from .collectives import iallreduce, ibarrier, ibcast
from .comm import MpiCommunicator, MpiConfig, MpiRank
from .envelope import ANY_SOURCE, ANY_TAG, ENVELOPE_BYTES, Envelope, MsgKind
from .match import Inbound, MatchEngine
from .request import MpiRequest

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "ENVELOPE_BYTES",
    "Envelope",
    "Inbound",
    "MatchEngine",
    "MpiCommunicator",
    "MpiConfig",
    "MpiRank",
    "MpiRequest",
    "MsgKind",
    "iallreduce",
    "ibarrier",
    "ibcast",
]
