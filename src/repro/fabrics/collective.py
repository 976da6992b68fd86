"""Packet-level collectives over a fabric: ring vs tree vs halving.

Each rank is a :class:`FabricHost` — one process-level participant that
sends messages through its fabric attachment and demultiplexes arrivals
by peer.  Adaptive routing may reorder packets between the same pair, so
arrival order never decides a match: the k-th message a host sends to a
peer carries ``k``, and the peer's k-th receive posted for that sender
takes it (MPI's non-overtaking rule).

The schedules themselves are the op scripts of
:mod:`repro.collectives.algorithms`; :meth:`FabricHost.run` interprets
them, ignoring ``compute`` (the fabric models the network only).
Payloads are real ``struct``-packed float64 vectors, so with
integer-valued inputs all three algorithms produce **bit-exact**
identical results — the sweep's cross-algorithm verdict.

The causal story: when the run's tracer wants the ``causal`` category,
every message carries ``meta["caddr"] = (src, dst, msg_seq)`` and the
stack emits ``snd -> [hop.crd ->] inj -> hop* -> eject -> rcd``; the
extended DAG rules chain those per address so ``critpath`` walks through
fabric hops and blames ``blocked-on-credit`` where a credit gate stalled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..collectives.algorithms import (ALLREDUCE_ALGORITHMS, REDUCE_OPS,
                                      all_reduce, expected_phases,
                                      expected_steps, pack)
from ..errors import NetworkError
from ..sim import AllOf, Simulator, Store
from ..network.packet import Packet, PacketKind
from .routing import FabricInstance

#: Fabric message header (routing + match sequence + transport bookkeeping).
FABRIC_HEADER = 32

#: The all-reduce schedules the fabric runs (defined once, in algorithms).
ALGORITHMS = ALLREDUCE_ALGORITHMS


def fabric_vector(rank: int, n: int, elems: int) -> List[float]:
    """Deterministic integer-valued payload: exact under every reduction
    order, so bit-exactness across algorithms is meaningful."""
    return [float((13 * rank + 7 * i + 3) % 101) for i in range(elems)]


class FabricHost:
    """One rank's attachment to the fabric: per-peer send/recv + demux."""

    def __init__(self, instance: FabricInstance, node_id: int) -> None:
        self.instance = instance
        self.sim: Simulator = instance.sim
        self.node_id = node_id
        self.attachment = instance.attachment(node_id)
        self._queues: Dict[Tuple[int, int], Store] = {}
        self._msg_seq = 0
        self._sent_to: Dict[int, int] = {}     # dst -> messages sent
        self._posted: Dict[int, int] = {}      # src -> receives posted
        self.packets_sent = 0
        self.packets_received = 0
        self.sim.process(self._demux(),
                         name=f"fabhost{node_id}.demux")

    def _queue(self, src: int, k: int) -> Store:
        key = (src, k)
        store = self._queues.get(key)
        if store is None:
            store = Store(self.sim, name=f"fabhost{self.node_id}.q{key}")
            self._queues[key] = store
        return store

    def _demux(self):
        trc = self.sim.tracer
        while True:
            packet = yield self.attachment.recv()
            self.packets_received += 1
            if trc.enabled and trc.wants("causal"):
                caddr = packet.meta.get("caddr")
                if caddr is not None:
                    trc.flow_event("eject", f"n{self.node_id}",
                                   addr=caddr, src=packet.src_node)
            yield self._queue(packet.src_node, packet.meta["k"]).put(packet)

    # -- messaging ----------------------------------------------------------
    def send(self, dst: int, payload: bytes):
        """Process fragment: inject the next message toward ``dst``;
        returns once the first hop has fully serialized it."""
        seq = self._msg_seq
        self._msg_seq += 1
        k = self._sent_to.get(dst, 0)
        self._sent_to[dst] = k + 1
        meta = {"k": k, "fid": seq}
        trc = self.sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            caddr = (self.node_id, dst, seq)
            meta["caddr"] = caddr
            trc.flow_event("snd", f"n{self.node_id}", addr=caddr,
                           dst=dst, bytes=len(payload))
        packet = Packet(PacketKind.FABRIC, self.node_id, dst,
                        FABRIC_HEADER, payload, meta,
                        seq=next(self.sim.packet_seq))
        yield from self.attachment.send(packet)
        self.packets_sent += 1
        if causal:
            trc.flow_event("inj", f"n{self.node_id}", addr=meta["caddr"])

    def recv(self, src: int):
        """Process fragment: the next message from ``src`` in its send
        order; returns its payload bytes."""
        k = self._posted.get(src, 0)
        self._posted[src] = k + 1
        trc = self.sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            trc.flow_event("rcv", f"n{self.node_id}", src=src)
        packet = yield self._queue(src, k).get()
        del self._queues[(src, k)]
        if causal and packet.meta.get("caddr") is not None:
            trc.flow_event("rcd", f"n{self.node_id}",
                           addr=packet.meta["caddr"], via="poll",
                           bytes=len(packet.payload))
        return packet.payload

    def run(self, script):
        """Process fragment: interpret one op script on this host and
        return its result; ``compute`` ops cost nothing here."""
        value = None
        while True:
            try:
                op = script.send(value)
            except StopIteration as stop:
                return stop.value
            kind = op[0]
            value = None
            if kind == "send":
                yield from self.send(op[1], op[2])
            elif kind == "recv":
                value = yield from self.recv(op[1])
            elif kind != "compute":
                raise NetworkError(f"unknown script op {kind!r}")


@dataclass
class CollectiveResult:
    """One (topology, algorithm, N) measurement."""

    topology: str
    algorithm: str
    n: int
    elems: int
    times: List[float]                  # per-iteration sim seconds
    steps: int                          # max per-rank message count
    phases: int
    packets: int                        # fabric-wide, incl. relays
    digest: bytes                       # packed final vector (rank 0)
    correct: bool
    stalls: int = 0
    stall_time: float = 0.0
    events: int = 0
    link_packets: dict = field(default_factory=dict)

    @property
    def p50_time(self) -> float:
        times = sorted(self.times)
        return times[len(times) // 2]

    @property
    def p50_step_time(self) -> float:
        return self.p50_time / max(1, self.phases)


def run_collective(instance: FabricInstance, algorithm: str,
                   elems_per_rank: int = 4, op: str = "sum",
                   iterations: int = 3) -> CollectiveResult:
    """Drive one all-reduce algorithm over an instantiated fabric.

    Emits ``req``/``rank`` brackets per iteration when the simulator's
    tracer wants causal flow events, so ``critpath`` can reconcile the
    measured per-iteration times exactly.
    """
    sim = instance.sim
    n = instance.n
    elems = elems_per_rank * n
    inputs = [fabric_vector(r, n, elems) for r in range(n)]
    # Every iteration's scripts are built, and so validated, up front.
    scripts = [[all_reduce(algorithm, r, n, inputs[r], op) for r in range(n)]
               for _ in range(iterations)]
    combine = REDUCE_OPS[op]
    hosts = [FabricHost(instance, r) for r in range(n)]
    expected = list(inputs[0])
    for vec in inputs[1:]:
        expected = [combine(a, b) for a, b in zip(expected, vec)]
    finals: Dict[int, List[float]] = {}
    steps: Dict[int, int] = {}
    times: List[float] = []

    def rank_body(rank: int, it: int):
        trc = sim.tracer
        causal = trc.enabled and trc.wants("causal")
        if causal:
            trc.flow_event("rank.begin", f"n{rank}", req=it)
        host = hosts[rank]
        sent = host.packets_sent
        finals[rank] = yield from host.run(scripts[it][rank])
        steps[rank] = max(steps.get(rank, 0), host.packets_sent - sent)
        if causal:
            trc.flow_event("rank.end", f"n{rank}", req=it)

    def driver():
        trc = sim.tracer
        causal = trc.enabled and trc.wants("causal")
        for it in range(iterations):
            t0 = sim.now
            if causal:
                trc.flow_event("req.begin", "driver", req=it)
            procs = [sim.process(rank_body(r, it), name=f"coll.it{it}.r{r}")
                     for r in range(n)]
            # AllOf instead of yielding each process: joining hundreds of
            # already-finished processes one by one would recurse through
            # Process._resume once per join.
            yield AllOf(sim, procs)
            times.append(sim.now - t0)
            if causal:
                trc.flow_event("req.end", "driver", req=it)

    # run_until_complete, not run(): the demux/router pumps never exit,
    # so a drained heap with them alive is normal termination here.
    sim.run_until_complete(sim.process(driver(), name="coll.driver"))
    correct = all(finals[r] == expected for r in range(n))
    flow = instance.flow_stats()
    return CollectiveResult(
        topology=instance.topology.kind, algorithm=algorithm, n=n,
        elems=elems, times=times, steps=max(steps.values()),
        phases=expected_phases(algorithm, n),
        packets=sum(h.packets_sent for h in hosts), digest=pack(finals[0]),
        correct=correct, stalls=int(flow["stalls"]),
        stall_time=flow["stall_time"], events=sim.events_processed,
        link_packets=instance.link_packets())


__all__ = ["ALGORITHMS", "FABRIC_HEADER", "CollectiveResult", "FabricHost",
           "expected_phases", "expected_steps", "fabric_vector",
           "run_collective"]
