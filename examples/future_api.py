#!/usr/bin/env python
"""What if the NIC followed the paper's §VI design rules?

The paper closes with three claims for future put/get interfaces: small
footprint, thread-collaborative posting, minimal PCIe control traffic.
This library implements them (see ``repro.core.future``):

* the 192-bit descriptor is posted as ONE warp-coalesced store,
* the notification queues live in GPU device memory, so polling runs out of
  the L2 instead of crossing PCIe.

This example measures how much of the GPU-vs-CPU gap the proposal recovers,
under identical dev2dev-direct semantics.

Run:  python examples/future_api.py
"""

from repro import build_extoll_cluster
from repro.core import (
    ExtollMode,
    run_extoll_pingpong,
    run_future_extoll_pingpong,
    setup_extoll_connection,
)
from repro.units import KIB

SIZES = [16, 256, 1 * KIB, 4 * KIB]
ITERS = 15


def main() -> None:
    rows = []
    for size in SIZES:
        cluster = build_extoll_cluster()
        conn = setup_extoll_connection(cluster, max(size, 4 * KIB))
        today = run_extoll_pingpong(cluster, conn, ExtollMode.DIRECT, size,
                                    iterations=ITERS)
        host = run_extoll_pingpong(cluster, conn, ExtollMode.HOST_CONTROLLED,
                                   size, iterations=ITERS)
        cluster2 = build_extoll_cluster()
        conn2 = setup_extoll_connection(cluster2, max(size, 4 * KIB),
                                        notification_location="gpu")
        future = run_future_extoll_pingpong(cluster2, conn2, size,
                                            iterations=ITERS)
        rows.append((size, today, future, host))

    print(f"{'size':>8} {'today (direct)':>16} {'§VI proposal':>14} "
          f"{'hostControlled':>16} {'gap recovered':>14}")
    for size, today, future, host in rows:
        gap = today.latency - host.latency
        recovered = (today.latency - future.latency) / gap if gap > 0 else 0.0
        print(f"{size:>8} {today.latency_us:>14.2f}us {future.latency_us:>12.2f}us "
              f"{host.latency_us:>14.2f}us {recovered:>13.0%}")

    t, f, h = rows[0][1].latency, rows[0][2].latency, rows[0][3].latency
    assert h < f < t, "expected host < future < today's direct"
    print("\nThe proposed interface sits between today's GPU-controlled path "
          "and the CPU-controlled bound, recovering most of the polling cost "
          "(§VI claims 1-3).")


if __name__ == "__main__":
    main()
