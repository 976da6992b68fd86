"""Nonblocking collectives staged as chain DAGs.

The schedules are the op scripts of :mod:`repro.collectives.algorithms`;
this module only interprets them over ``isend``/``irecv`` requests.
:func:`interpret` turns a script into the pump vocabulary (requests and
float compute charges) and :func:`_pump` drives it through completion
callbacks: when the generator yields an already-complete request the pump
advances immediately, otherwise it parks a callback on the request's
``done`` event and returns.  Every hop therefore runs entirely inside NIC
completion callbacks — the host never polls, and the only work between
messages is the triggered layer arming the next pre-staged chain.

Running the same scripts as the channel collectives (same chunk indexing,
same reduction association order) makes an ``iallreduce`` here bit-exact
against the channel datapath's all-reduce for the same input vector.
"""

from __future__ import annotations

from typing import List, Optional

from ..collectives.algorithms import all_reduce, barrier, broadcast
from ..errors import MpiError
from .comm import MpiCommunicator, MpiRank
from .request import MpiRequest

#: Collective traffic lives in the top half of the 16-bit tag space so it
#: can never collide with user point-to-point tags (kept below it by
#: convention) — and successive collectives on one communicator use
#: successive tags, which keeps concurrent collectives separated too.
_COLL_TAG_BASE = 1 << 15
_COLL_TAG_SPAN = 1 << 15


def _coll_tag(rank: MpiRank) -> int:
    """Per-rank collective sequence number mapped into the reserved tag
    space.  MPI requires every rank to start the same collectives in the
    same order, which makes the local counter globally consistent."""
    seq = rank.coll_seq
    rank.coll_seq += 1
    return _COLL_TAG_BASE + seq % _COLL_TAG_SPAN


def _pump(comm: MpiCommunicator, gen, req: MpiRequest) -> None:
    """Drive ``gen`` to completion through completion callbacks.

    A failed request ``gen`` yielded is thrown into it; an exception ``gen``
    raises fails ``req.done``, so whoever waits on ``req`` sees it."""
    sim = comm.sim

    def step(waited: Optional[MpiRequest] = None) -> None:
        while True:
            try:
                if waited is None or waited.done.ok:
                    item = gen.send(waited and waited.data)
                else:
                    item = gen.throw(waited.done.value)
            except StopIteration as stop:
                req.complete(stop.value)
                return
            except Exception as exc:
                req.done.fail(exc)
                return
            if isinstance(item, MpiRequest):
                if item.done.processed:
                    waited = item
                    continue
                item.done.add_callback(lambda _ev, it=item: step(it))
                return
            # A float is a compute charge (reduction arithmetic).
            sim.call_later(float(item), step,
                           name=f"mpi:compute:{req.kind}:{req.rank}")
            return

    step()


def interpret(rank: MpiRank, script, tag: int):
    """Translate one op script into the pump vocabulary, every message on
    ``tag``; returns the script's result.

    Sends are posted without waiting and drained at script end —
    rendezvous sends only complete once the peer's matching receive
    produces the CTS, so awaiting them inline would deadlock symmetric
    exchange patterns.  ``compute`` is charged at the GPU's instruction
    time.
    """
    per_instr = rank.node.gpu.config.instruction_time
    trc = rank.comm.sim.tracer
    sends: List[MpiRequest] = []
    value = None
    while True:
        try:
            op = script.send(value)
        except StopIteration as stop:
            result = stop.value
            break
        kind = op[0]
        value = None
        if kind == "send":
            sends.append(rank.isend(op[1], op[2], tag=tag))
        elif kind == "recv":
            value = yield rank.irecv(source=op[1], tag=tag)
        elif kind == "compute":
            yield op[1] * per_instr
            if trc.wants("causal"):
                trc.flow_event("cmp", f"n{rank.rank}", instr=op[1])
        else:
            raise MpiError(f"unknown script op {kind!r}")
    for sreq in sends:
        yield sreq
    return result


def _start(comm: MpiCommunicator, rank: MpiRank, kind: str,
           script) -> MpiRequest:
    """Pump ``script`` on the next collective tag; returns its request."""
    req = MpiRequest(comm.sim, kind, rank.rank)
    _pump(comm, interpret(rank, script, _coll_tag(rank)), req)
    return req


# -- the collectives -------------------------------------------------------------

def ibarrier(comm: MpiCommunicator, rank: MpiRank) -> MpiRequest:
    """Ring token barrier (two sweeps), returning immediately with a
    request that completes once every rank has entered."""
    return _start(comm, rank, "barrier", barrier(rank.rank, rank.size))


def ibcast(comm: MpiCommunicator, rank: MpiRank,
           data: Optional[bytes] = None, root: int = 0) -> MpiRequest:
    """Ring broadcast from ``root``; ``req.data`` is the payload."""
    return _start(comm, rank, "bcast",
                  broadcast(rank.rank, rank.size, data, root))


def iallreduce(comm: MpiCommunicator, rank: MpiRank,
               values: List[float], op: str = "sum",
               algorithm: str = "ring") -> MpiRequest:
    """Nonblocking all-reduce of a float64 vector; ``req.data`` holds the
    reduced vector.  ``algorithm`` (``ring``/``rh``/``tree``) picks the
    schedule that gets staged as a chain DAG and ``op`` any
    :data:`~repro.collectives.algorithms.REDUCE_OPS` name; both are
    validated here, before any chain is armed."""
    return _start(comm, rank, "allreduce",
                  all_reduce(algorithm, rank.rank, rank.size, values, op))
