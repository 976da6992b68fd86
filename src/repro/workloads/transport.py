"""Control-mode transports: run one op script under each put/get variant.

A :class:`WorkloadTransport` wires a cluster for one workload's
connectivity once, then executes requests on demand.  Four control modes
run the same script, through the channel interpreter
(:meth:`~repro.collectives.comm.RankComm.run`) or the MPI one
(:func:`~repro.mpi.collectives.interpret`):

* ``hostControlled``   — host threads drive the NIC (§III-B librma API),
* ``dev2dev-direct``   — device threads post notified puts and poll the
  notification queues in host memory (§III-C),
* ``engine``           — device threads stage msglib sends and post them
  through the offload engine's batched doorbell (PR 5's warp-parallel
  descriptor path over PR 1's slot rings),
* ``mpi``              — the triggered-MPI layer (PR 7): tagged
  isend/irecv over counter-fired descriptor chains, the CPU-free path.

The first three ride PR 2's :class:`~repro.collectives.comm.Communicator`
(the engine mode reuses its ``pollOnGPU`` channel wiring and replaces only
the posting path).  Requests are launched *asynchronously* — completion
arrives via callback — which is what lets the open-loop generator keep
issuing on the arrival clock instead of the completion clock.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Optional

from ..cluster import Cluster
from ..collectives.comm import CollectiveMode, Communicator
from ..core.msglib import gpu_finish_send, gpu_stage_send
from ..engine import DEFAULT_LANES, EngineStats, engine_post_batch
from ..errors import BenchmarkError
from ..mpi.collectives import _pump, interpret
from ..mpi.comm import MpiCommunicator, MpiConfig
from ..mpi.envelope import ENVELOPE_BYTES
from ..mpi.request import MpiRequest
from .apps import Workload

#: Control modes the workloads sweep, in report order.
MODES = ("hostControlled", "dev2dev-direct", "engine", "mpi")

#: Channel-communicator mode behind each non-MPI workload mode.  The
#: engine transport uses the pollOnGPU wiring (header spinning, no
#: notifications) and swaps only how the put descriptor reaches the NIC.
_CHANNEL_MODES = {
    "hostControlled": CollectiveMode.HOST_CONTROLLED,
    "dev2dev-direct": CollectiveMode.DIRECT,
    "engine": CollectiveMode.POLL_ON_GPU,
}

#: MPI user tags live below the collective band (1 << 15); one tag per
#: in-flight request keeps concurrent rounds' envelopes apart.
_TAG_SPAN = 1 << 12


def _round8(n: int) -> int:
    return (n + 7) // 8 * 8


def validate_cell(workload: Workload, mode: str, nodes: int,
                  size: int) -> None:
    """Reject a (workload, mode, N, size) cell no transport can run."""
    if mode not in MODES:
        raise BenchmarkError(f"unknown workload mode {mode!r} "
                             f"(choose from: {', '.join(MODES)})")
    if size < 8 or size % 8:
        raise BenchmarkError(
            f"workload message size must be a positive multiple of 8, "
            f"got {size}")
    if nodes < workload.min_nodes:
        raise BenchmarkError(
            f"workload {workload.name!r} needs at least "
            f"{workload.min_nodes} nodes, got {nodes}")


class WorkloadTransport:
    """One (cluster, workload, control mode) execution engine."""

    def __init__(self, cluster: Cluster, workload: Workload, mode: str,
                 size: int, slots: int = 16, reliable: bool = False,
                 reliability_config=None,
                 lanes: int = DEFAULT_LANES) -> None:
        validate_cell(workload, mode, len(cluster), size)
        self.cluster = cluster
        self.sim = cluster.sim
        self.workload = workload
        self.mode = mode
        self.size = size
        self.nodes = len(cluster)
        self.lanes = lanes
        self.engine_stats = EngineStats()   # populated by the engine mode
        self._requests_launched = 0
        if mode == "mpi":
            mcfg = MpiConfig(connectivity=workload.connectivity,
                             slots=slots)
            if reliable and size > mcfg.eager_threshold:
                # Rendezvous payloads travel as ONE raw put outside the
                # slot rings, so the channel retransmission engines never
                # see them — under injected loss they would vanish.  Widen
                # the eager threshold so every workload message rides the
                # reliable rings.
                mcfg = MpiConfig(
                    connectivity=workload.connectivity, slots=slots,
                    eager_threshold=size,
                    slot_size=_round8(size + ENVELOPE_BYTES) + 8)
            self.comm: Optional[Communicator] = None
            self.mpi: Optional[MpiCommunicator] = MpiCommunicator(
                cluster, mcfg,
                reliable=reliable, reliability_config=reliability_config)
        else:
            self.mpi = None
            self.comm = Communicator(
                cluster, _CHANNEL_MODES[mode],
                slot_size=max(64, _round8(size) + 8), slots=slots,
                reliable=reliable, reliability_config=reliability_config,
                connectivity=workload.connectivity)

    # -- async request execution --------------------------------------------------

    def start_request(self, req: int,
                      on_done: Callable[[Dict[int, object]], None],
                      on_failed: Callable[[BaseException], None]) -> None:
        """Launch request ``req`` on every rank; ``on_done(results)`` fires
        at the simulated instant the LAST rank finishes, ``on_failed(exc)``
        whenever a rank fails instead."""
        self._requests_launched += 1
        start = self._start_channels if self.mpi is None else self._start_mpi
        start(req, {}, on_done, on_failed)

    # -- channel modes (hostControlled / direct / engine) -------------------------

    def _start_channels(self, req: int, results: Dict[int, object],
                        on_done: Callable, on_failed: Callable) -> None:
        engine = self.mode == "engine"

        def body(ctx, rc):
            trc = ctx.sim.tracer
            causal = trc.wants("causal")
            if causal:
                trc.flow_event("rank.begin", f"n{rc.rank}", req=req)
            gen = self.workload.script(req, rc.rank, self.nodes, self.size)
            send = partial(self._engine_send, rc) if engine else None
            results[rc.rank] = yield from rc.run(ctx, gen, send)
            if causal:
                trc.flow_event("rank.end", f"n{rc.rank}", req=req)

        handles = self.comm.launch(body)
        remaining = [len(handles)]

        def one_done(ev) -> None:
            if not ev.ok:
                on_failed(ev.value)
                return
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done(results)

        for handle in handles:
            handle.add_callback(one_done)

    def _engine_send(self, rc, ctx, peer: int, data: bytes):
        """msglib send with the offload engine posting the put: stage the
        slot, then one warp-parallel descriptor batch + count doorbell."""
        end = rc.send_end(peer)
        ncfg = rc.node.nic.config
        wr = yield from gpu_stage_send(ctx, end, data)
        yield from engine_post_batch(ctx, end.page_addr,
                                     ncfg.batch_region_offset,
                                     ncfg.batch_doorbell_offset, [wr],
                                     self.lanes)
        trc = ctx.sim.tracer
        if trc.wants("causal"):
            trc.flow_event("pst", f"n{end.src_node_id}",
                           addr=(wr.dst_node, wr.dst_nla), via="engine")
        gpu_finish_send(end)
        stats = self.engine_stats
        stats.messages += 1
        stats.wrs += 1
        stats.doorbells += 1
        stats.batches += 1

    # -- triggered-MPI mode -------------------------------------------------------

    def _start_mpi(self, req: int, results: Dict[int, object],
                   on_done: Callable, on_failed: Callable) -> None:
        remaining = [self.mpi.size]
        tag = req % _TAG_SPAN
        trc = self.sim.tracer
        causal = trc.wants("causal")

        def one_done(rank: int, mreq: MpiRequest) -> None:
            if not mreq.done.ok:
                on_failed(mreq.done.value)
                return
            if causal:
                trc.flow_event("rank.end", f"n{rank}", req=req)
            results[rank] = mreq.data
            remaining[0] -= 1
            if remaining[0] == 0:
                on_done(results)

        for rank in self.mpi.ranks:
            if causal:
                trc.flow_event("rank.begin", f"n{rank.rank}", req=req)
            mreq = MpiRequest(self.sim, "workload", rank.rank)
            mreq.done.add_callback(
                lambda _ev, r=rank.rank, q=mreq: one_done(r, q))
            gen = self.workload.script(req, rank.rank, self.nodes, self.size)
            _pump(self.mpi, interpret(rank, gen, tag), mreq)


__all__ = ["MODES", "WorkloadTransport", "validate_cell"]
