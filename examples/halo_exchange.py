#!/usr/bin/env python
"""Halo exchange: a 1-D Jacobi stencil distributed over N GPUs.

The workload the paper's introduction motivates: iterative computation on
each GPU with a boundary (halo) exchange between iterations.  The exchange
runs through :mod:`repro.collectives` — by default entirely GPU-controlled,
each device thread putting its boundary cells to the neighbors and polling
for theirs in device memory, so the CPU never wakes up during the solve
(§III-C's goal: 'completely frees the CPU while communication is
offloaded').  ``--mode hostControlled`` shows the same solve with CPUs
driving the NICs; ``--nodes N`` scales the rod across more GPUs.

Each node owns a slice of a 1-D rod; the stencil is u[i] = (u[i-1]+u[i+1])/2
with fixed boundary temperatures.  Numerics run in numpy alongside the
simulation; communication costs come from the simulated fabric.

Run:  python examples/halo_exchange.py [--nodes 4] [--mode dev2dev-direct]
"""

import argparse

import numpy as np

from repro.collectives import CollectiveMode, build_communicator, collective_mode
from repro.collectives.algorithms import halo_exchange
from repro.units import format_time

CELLS_PER_NODE = 64          # local domain size
ITERATIONS = 40
HALO_BYTES = 8               # one float64 boundary cell per side
LEFT_TEMP, RIGHT_TEMP = 100.0, 0.0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=2,
                        help="GPUs the rod is distributed over (default: 2)")
    parser.add_argument("--mode", default=CollectiveMode.POLL_ON_GPU.value,
                        choices=[m.value for m in CollectiveMode],
                        help="who drives the NICs (default: dev2dev-pollOnGPU)")
    parser.add_argument("--topology", default="auto",
                        help="fabric topology (default: auto)")
    args = parser.parse_args(argv)
    n = args.nodes

    cluster, comm = build_communicator(n, HALO_BYTES,
                                       collective_mode(args.mode),
                                       args.topology)

    # Local domains (+1 ghost cell each side), seeded with a per-rank flat
    # guess that keeps the global profile monotone from the start.
    domains = {
        r: np.full(CELLS_PER_NODE + 2,
                   LEFT_TEMP - (LEFT_TEMP - RIGHT_TEMP) * (r + 0.5) / n)
        for r in range(n)
    }
    domains[0][0] = LEFT_TEMP
    domains[n - 1][-1] = RIGHT_TEMP
    exchanges = {r: 0 for r in range(n)}

    def solver_kernel(ctx, rc):
        u = domains[rc.rank]
        for _it in range(ITERATIONS):
            # Local Jacobi sweep: ~6 instructions per cell on this thread.
            yield from rc.compute(ctx, 6 * CELLS_PER_NODE)
            u[1:-1] = 0.5 * (u[:-2] + u[2:])
            if rc.rank == 0:
                u[0] = LEFT_TEMP
            if rc.rank == rc.size - 1:
                u[-1] = RIGHT_TEMP
            # Trade boundary cells with both neighbors; the rod's outer
            # ends stay pinned (non-periodic).
            sent = rc.sent
            left, right = yield from rc.run(ctx, halo_exchange(
                rc.rank, rc.size, u[1:-1].tobytes(), HALO_BYTES,
                periodic=False))
            if left is not None:
                u[0] = np.frombuffer(left, np.float64)[0]
            if right is not None:
                u[-1] = np.frombuffer(right, np.float64)[0]
            exchanges[rc.rank] += rc.sent - sent

    handles = comm.launch(solver_kernel)
    cluster.sim.run_until_complete(*handles, limit=60.0)

    u = np.concatenate([domains[r][1:-1] for r in range(n)])
    # The solution relaxes toward the linear profile between the two ends.
    expected = np.linspace(LEFT_TEMP, RIGHT_TEMP, len(u) + 2)[1:-1]
    err = np.abs(u - expected).max()

    print(f"nodes x cells             : {n} x {CELLS_PER_NODE}")
    print(f"mode / topology           : {comm.mode.value} / {cluster.topology}")
    print(f"iterations                : {ITERATIONS}")
    print(f"halo exchanges (puts)     : {sum(exchanges.values())}")
    print(f"simulated solve time      : {format_time(cluster.sim.now)}")
    print(f"temperature profile       : monotone={bool(np.all(np.diff(u) <= 1e-9))}")
    print(f"max deviation from steady state: {err:.2f} "
          f"(relaxation incomplete by design)")
    cpu_woken = n if comm.mode.host_driven else 0
    print(f"CPU threads woken during solve : {cpu_woken}")
    assert np.all(np.diff(u) <= 1e-9), "profile must decrease left-to-right"
    assert u[0] > u[-1]


if __name__ == "__main__":
    main()
