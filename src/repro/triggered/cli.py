"""``python -m repro triggered`` — stage a ring exchange once, fire it with
one doorbell per node, and compare its control path against host assist.

The demo is a two-round neighbour relay on an N-node ring: round 1 puts each
node's token to its right neighbour; round 2 relays the token just received
from the left one hop further.  Both rounds are staged up front as chains —
round 2 armed on (own round 1 complete) + (left neighbour's data arrived) —
so the only control-path action after staging is ONE 8-byte counter doorbell
per node.  The host-assist reference runs the identical exchange with the
CPU posting every descriptor and polling completer notifications.

Verdicts (exit status is non-zero if any fails):

* both variants move the right bytes,
* the triggered run posts ZERO work requests through the BAR after staging,
* exactly one counter doorbell per node,
* every staged chain completes.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, Optional

from ..analysis.invariants import Verdict, render, to_json
from ..cluster import build_extoll_cluster
from ..extoll import NotificationCursor, NotifyFlags, RmaOp, RmaWorkRequest, \
    rma_post, rma_wait_notification
from ..memory import AddressRange
from ..obs.export import write_chrome_trace
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro triggered",
        description="Staged ring exchange fired by counter doorbells, "
                    "vs host-assisted control.")
    parser.add_argument("--nodes", type=int, default=4,
                        help="ring size (default: 4)")
    parser.add_argument("--size", type=int, default=4096,
                        help="bytes per put (default: 4096)")
    parser.add_argument("--quick", action="store_true",
                        help="small run for CI (2 nodes, 256B)")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulator seed (default: 7)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of text")
    parser.add_argument("--out", default=None,
                        help="write the triggered run as a Chrome trace")
    args = parser.parse_args(argv)

    nodes = 2 if args.quick else args.nodes
    size = 256 if args.quick else args.size

    trig_tracer = SpanTracer() if args.out else None
    trig = run_triggered(nodes, size, args.seed, tracer=trig_tracer)
    host = run_host_assist(nodes, size, args.seed)
    if args.out:
        write_chrome_trace(trig_tracer, args.out)

    verdicts = [
        Verdict("triggered-data", bool(trig["data_ok"]),
                "both relay rounds delivered the right bytes"),
        Verdict("host-assist-data", bool(host["data_ok"]),
                "reference exchange delivered the right bytes"),
        Verdict("zero-host-wr-posts", trig["host_wr_posts"] == 0,
                f"WR posts through the BAR after staging: "
                f"{trig['host_wr_posts']}"),
        Verdict("one-doorbell-per-node", trig["doorbells"] == nodes,
                f"counter doorbells: {trig['doorbells']} (nodes: {nodes})"),
        Verdict("all-chains-completed",
                trig["chains_completed"] == trig["chains_staged"]
                == 2 * nodes,
                f"{trig['chains_completed']}/{trig['chains_staged']} chains "
                f"completed"),
    ]
    ok = all(v.ok for v in verdicts)

    if args.json:
        print(json.dumps({
            "nodes": nodes, "size": size, "seed": args.seed,
            "triggered": trig, "host_assist": host,
            "verdicts": to_json(verdicts),
            "ok": ok,
        }, indent=2))
        return 0 if ok else 1

    print(f"Triggered ring exchange: {nodes} nodes, {size} B per put, "
          f"2 rounds")
    print("=" * 60)
    rows = [
        ("control path", "triggered chains", "host assist"),
        ("WR posts via BAR", str(trig["host_wr_posts"]),
         str(host["wr_posts"])),
        ("counter doorbells", str(trig["doorbells"]),
         str(host["doorbells"])),
        ("completion time", f"{trig['elapsed_us']:.2f} us",
         f"{host['elapsed_us']:.2f} us"),
    ]
    for label, t, h in rows:
        print(f"{label:>20} {t:>18} {h:>14}")
    print()
    print(render(verdicts))
    return 0 if ok else 1
