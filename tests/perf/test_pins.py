"""The scenarios the ``engine``, ``mpi``, ``faults``, ``fabrics``,
``collectives``, ``triggered`` and ``workloads`` subcommands run
reproduce their committed ``BENCH_*.json`` baselines exactly: every
pinned value with ``==`` and every invariant true."""

from pathlib import Path

import pytest

from repro.perf import SCENARIOS, check

ROOT = Path(__file__).resolve().parents[2]

SUBCOMMAND_SCENARIOS = ("engine-latency", "engine-rate", "faults-overhead",
                        "fabric-allreduce", "fabric-congestion",
                        "mpi-latency", "mpi-allreduce",
                        "collectives-allreduce", "triggered-relay",
                        "workload-trainstep", "workload-moe",
                        "workload-kvcache")


@pytest.mark.parametrize("name", SUBCOMMAND_SCENARIOS)
def test_subcommand_scenario_holds_its_pins(name):
    report = check(SCENARIOS[name], str(ROOT))
    assert report.ok, report.render(verbose=True)
    assert not [d for d in report.deviations if d.status == "new"], \
        report.render()
