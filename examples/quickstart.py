#!/usr/bin/env python
"""Quickstart: a GPU thread sends data to a remote GPU, no CPU involved.

Builds the simulated two-node EXTOLL testbed, registers GPU buffers with the
NIC, maps the RMA requester page into the GPU's address space (the paper's
driver patch, §III-C), and runs a single device thread that

1. writes a payload into its send buffer (device memory),
2. posts a put descriptor straight to the NIC with three 64-bit stores,
3. waits for the requester notification.

The remote GPU polls its receive buffer until the payload lands.

Run:  python examples/quickstart.py
"""

from repro import build_extoll_cluster
from repro.core import (
    gpu_rma_post,
    gpu_rma_wait_notification,
    setup_extoll_connection,
)
from repro.extoll import NotifyFlags, RmaOp, RmaWorkRequest
from repro.units import KIB, format_time


def main() -> None:
    # One simulator, two nodes (CPU + GPU + EXTOLL NIC each), one cable.
    cluster = build_extoll_cluster()
    conn = setup_extoll_connection(cluster, buf_bytes=4 * KIB)
    sender, receiver = conn.a, conn.b

    message = b"hello from the GPU on node 0!" + bytes(3)  # pad to 8B multiple
    size = len(message)

    put = RmaWorkRequest(
        op=RmaOp.PUT, port=sender.port.port_id, dst_node=receiver.node.node_id,
        src_nla=sender.send_nla.base, dst_nla=receiver.recv_nla.base,
        size=size, flags=NotifyFlags.REQUESTER,
    )

    def send_kernel(ctx):
        """Runs on node 0's GPU — one thread drives the NIC directly."""
        yield from ctx.store(sender.send_buf.base, message)
        t0 = ctx.sim.now
        yield from gpu_rma_post(ctx, sender.port.page_addr, put)
        note, polls = yield from gpu_rma_wait_notification(
            ctx, sender.requester_cursor())
        return ctx.sim.now - t0, polls

    def recv_kernel(ctx):
        """Runs on node 1's GPU — spin until the last element arrives."""
        expected = int.from_bytes(message[-8:], "little")
        t0 = ctx.sim.now
        yield from ctx.spin_until_u64(receiver.recv_buf.base + size - 8,
                                      lambda v: v == expected)
        return ctx.sim.now - t0

    send = sender.node.gpu.launch(send_kernel)
    recv = receiver.node.gpu.launch(recv_kernel)
    cluster.sim.run_until_complete(send, recv, limit=1.0)

    post_time, polls = send.block_result(0)
    arrival_time = recv.block_result(0)
    landed = receiver.node.gpu.dram.read(receiver.recv_buf.base, size)

    print(f"payload delivered intact : {landed == message}")
    print(f"sender post+notification : {format_time(post_time)} "
          f"({polls} notification polls over PCIe)")
    print(f"receiver wait (devmem)   : {format_time(arrival_time)}")
    print(f"simulated time total     : {format_time(cluster.sim.now)}")
    assert landed == message


if __name__ == "__main__":
    main()
