"""The telemetry plane watching the triggered + MPI layers."""

from __future__ import annotations

from repro.cluster import build_extoll_cluster
from repro.mpi import MpiCommunicator
from repro.sim import Simulator
from repro.telemetry import TelemetryPlane
from repro.telemetry.plane import DEFAULT_CATEGORIES


def test_recorder_keeps_trig_and_mpi_categories():
    assert "trig" in DEFAULT_CATEGORIES
    assert "mpi" in DEFAULT_CATEGORIES


def test_plane_watches_mpi_and_triggered_series():
    sim = Simulator()
    plane = TelemetryPlane(sim, interval=2e-6)
    cluster = build_extoll_cluster(sim=sim, num_nodes=2)
    comm = MpiCommunicator(cluster)
    plane.watch_stats("mpi", comm)
    for rank in comm.ranks:
        plane.watch_stats(f"mpi.rank{rank.rank}.match", rank.matcher)
    for unit in comm.units:
        plane.watch_stats(f"trig.n{unit.node.node_id}", unit.stats)
    plane.start()

    r0, r1 = comm.ranks
    reqs = []
    for i in range(6):
        reqs.append(r0.isend(1, b"t%d" % i, tag=0))
        reqs.append(r1.irecv(source=0, tag=0))
    comm.wait(*reqs)
    sim.run(until=sim.now + 10e-6)      # a few sample windows
    plane.stop()

    series = plane.report()["series"]
    assert "mpi.eager_sent" in series
    assert "mpi.rank1.match.matches" in series
    trig_series = [s for s in series if s.startswith("trig.")]
    assert any(s.endswith(".chains_fired") for s in trig_series)
    points = plane.sampler.bank.get("mpi.eager_sent").points()
    assert sum(value for _t, value in points) == 6
    # Spans from the mpi/trig categories are recordable by default.
    assert plane.recorder.wants("mpi")
    assert plane.recorder.wants("trig")
