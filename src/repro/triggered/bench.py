"""The triggered ring relay and its host-assist reference.

The relay is a two-round neighbour exchange on an N-node ring: round 1
puts each node's token to its right neighbour; round 2 relays the token
just received from the left one hop further.  :func:`run_triggered`
stages both rounds up front as chains — round 2 armed on (own round 1
complete) + (left neighbour's data arrived) — so the only control-path
action after staging is ONE 8-byte counter doorbell per node.
:func:`run_host_assist` runs the identical exchange with the CPU posting
every descriptor and polling completer notifications.  Both return the
run's elapsed time, a data check and the NIC's control-path counters;
the ``triggered-relay`` scenario (:mod:`repro.perf.scenarios`) judges
them.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster import build_extoll_cluster
from ..extoll import NotificationCursor, NotifyFlags, RmaOp, RmaWorkRequest, \
    rma_post, rma_wait_notification
from ..memory import AddressRange
from ..obs.tracer import SpanTracer
from ..sim import Simulator
from ..units import US
from .unit import TriggeredUnit

_LIMIT = 1.0  # simulated-seconds cap per run


def _build(num_nodes: int, seed: int, tracer: Optional[SpanTracer] = None):
    sim = Simulator(seed=seed, tracer=tracer)
    cluster = build_extoll_cluster(sim=sim, num_nodes=num_nodes,
                                   topology="ring" if num_nodes > 2 else "pair")
    for node in cluster.nodes:
        node.nic.open_port(0)
    return cluster


def _buffers(cluster, size: int):
    """Token/recv1/recv2 per node, registered; returns NLA tables."""
    tokens, recv1, recv2 = [], [], []
    for i, node in enumerate(cluster.nodes):
        tok = node.host_malloc(size)
        node.host_mem.write(tok.base, bytes([i + 1]) * size)
        tokens.append((tok, node.nic.register_memory(tok)))
        r1 = node.host_malloc(size)
        recv1.append((r1, node.nic.register_memory(r1)))
        r2 = node.host_malloc(size)
        recv2.append((r2, node.nic.register_memory(r2)))
    return tokens, recv1, recv2


def _expected(i: int, n: int, size: int, rounds: int) -> bytes:
    return bytes([(i - rounds) % n + 1]) * size


def run_triggered(num_nodes: int, size: int, seed: int,
                  tracer: Optional[SpanTracer] = None) -> Dict[str, object]:
    cluster = _build(num_nodes, seed, tracer)
    n = num_nodes
    tokens, recv1, recv2 = _buffers(cluster, size)
    units = [TriggeredUnit(node) for node in cluster.nodes]

    chains = []
    for i, (node, unit) in enumerate(zip(cluster.nodes, units)):
        right = (i + 1) % n
        start = unit.counter("start")
        ready2 = unit.counter("round2-ready")
        # Left neighbour's round-1 data landing in recv1 ticks ready2 ...
        unit.count_arrivals(ready2, nla_base=recv1[i][1].base, nla_size=size)
        # ... and so does our own round-1 chain completing.
        c1 = unit.chain(f"n{i}.round1").append(RmaWorkRequest(
            op=RmaOp.PUT, port=0, dst_node=right,
            src_nla=tokens[i][1].base, dst_nla=recv1[right][1].base,
            size=size, flags=NotifyFlags.NONE)).on_complete_tick(ready2)
        c2 = unit.chain(f"n{i}.round2").append(RmaWorkRequest(
            op=RmaOp.PUT, port=0, dst_node=right,
            src_nla=recv1[i][1].base, dst_nla=recv2[right][1].base,
            size=size, flags=NotifyFlags.NONE))
        c1.arm(start, 1)
        c2.arm(ready2, 2)
        chains += [c1, c2]

    # The entire exchange is now staged; each node's GPU fires it with one
    # 8-byte doorbell store.
    handles = []
    for i, (node, unit) in enumerate(zip(cluster.nodes, units)):
        port = node.nic.port_state(0)
        node.gpu.map_mmio(AddressRange(
            port.page_addr, node.nic.config.requester_page_size))
        start = unit.counters[0]

        def kernel(ctx, unit=unit, page=port.page_addr, counter=start):
            yield from unit.device_tick(ctx, page, counter)
            yield from ctx.fence_system()

        handles.append(node.gpu.launch(kernel))

    cluster.sim.run_until_complete(*handles, limit=_LIMIT)
    cluster.sim.run_until_complete(*[c.completed for c in chains],
                                   limit=_LIMIT)
    elapsed = cluster.sim.now
    cluster.sim.run(until=cluster.sim.now + 200 * US)  # drain deliveries

    data_ok = all(
        cluster.nodes[i].host_mem.read(recv1[i][0].base, size)
        == _expected(i, n, size, 1)
        and cluster.nodes[i].host_mem.read(recv2[i][0].base, size)
        == _expected(i, n, size, 2)
        for i in range(n))
    return {
        "elapsed_us": elapsed / US,
        "data_ok": data_ok,
        "doorbells": sum(node.nic.trigger_doorbells
                         for node in cluster.nodes),
        "host_wr_posts": sum(node.nic.wr_posts + node.nic.batch_descriptors
                             for node in cluster.nodes),
        "chains_completed": sum(u.stats.chains_completed for u in units),
        "chains_staged": sum(u.stats.chains_staged for u in units),
        "descriptors_fired": sum(u.stats.descriptors_fired for u in units),
        "counter_ticks": sum(u.stats.counter_ticks for u in units),
    }


def run_host_assist(num_nodes: int, size: int, seed: int,
                    ) -> Dict[str, object]:
    cluster = _build(num_nodes, seed)
    n = num_nodes
    tokens, recv1, recv2 = _buffers(cluster, size)

    procs = []
    for i, node in enumerate(cluster.nodes):
        right = (i + 1) % n
        port = node.nic.port_state(0)

        def body(ctx, i=i, right=right, port=port):
            cursor = NotificationCursor(port.completer_queue)
            w1 = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=right,
                                src_nla=tokens[i][1].base,
                                dst_nla=recv1[right][1].base,
                                size=size, flags=NotifyFlags.COMPLETER)
            yield from rma_post(ctx, port.page_addr, w1)
            yield from rma_wait_notification(ctx, cursor)  # left's round 1
            w2 = RmaWorkRequest(op=RmaOp.PUT, port=0, dst_node=right,
                                src_nla=recv1[i][1].base,
                                dst_nla=recv2[right][1].base,
                                size=size, flags=NotifyFlags.COMPLETER)
            yield from rma_post(ctx, port.page_addr, w2)
            yield from rma_wait_notification(ctx, cursor)  # left's round 2

        procs.append(node.cpu.spawn(body, name=f"host-assist-{i}"))

    cluster.sim.run_until_complete(*procs, limit=_LIMIT)
    elapsed = cluster.sim.now
    cluster.sim.run(until=cluster.sim.now + 200 * US)

    data_ok = all(
        cluster.nodes[i].host_mem.read(recv1[i][0].base, size)
        == _expected(i, n, size, 1)
        and cluster.nodes[i].host_mem.read(recv2[i][0].base, size)
        == _expected(i, n, size, 2)
        for i in range(n))
    return {
        "elapsed_us": elapsed / US,
        "data_ok": data_ok,
        "doorbells": sum(node.nic.trigger_doorbells
                         for node in cluster.nodes),
        "wr_posts": sum(node.nic.wr_posts + node.nic.batch_descriptors
                        for node in cluster.nodes),
    }
