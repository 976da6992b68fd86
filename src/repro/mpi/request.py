"""Request objects: the nonblocking-completion handles of the MPI layer."""

from __future__ import annotations

from typing import Optional

from ..errors import MpiError
from ..sim import Event


class MpiRequest:
    """One outstanding operation (send, recv, or collective).

    Completion is an :class:`~repro.sim.event.Event`, so requests compose
    with every waiting idiom in the repo: sim processes ``yield`` it,
    host code drives the simulator to it
    (:meth:`MpiCommunicator.wait <repro.mpi.comm.MpiCommunicator.wait>`),
    and the NIC-resident collective engines chain callbacks on it.
    """

    _next_id = 0

    def __init__(self, sim, kind: str, rank: int,
                 source: int = -1, tag: int = -1) -> None:
        MpiRequest._next_id += 1
        self.id = MpiRequest._next_id
        self.kind = kind              # "send" | "recv" | collective name
        self.rank = rank              # the rank this request belongs to
        self.source = source          # recv: accepted source (ANY_SOURCE ok)
        self.tag = tag                # recv: accepted tag (ANY_TAG ok)
        self.done: Event = sim.event(name=f"mpi:{kind}:{self.id}")
        self.data: Optional[bytes] = None   # recv/collective result payload
        self.matched_source: Optional[int] = None
        self.matched_tag: Optional[int] = None

    def complete(self, data: Optional[bytes] = None,
                 source: Optional[int] = None,
                 tag: Optional[int] = None) -> None:
        if self.done.triggered:
            raise MpiError(f"request {self.id} completed twice")
        self.data = data
        self.matched_source = source
        self.matched_tag = tag
        self.done.succeed(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done.processed else "pending"
        return f"<MpiRequest {self.kind} #{self.id} rank={self.rank} {state}>"
