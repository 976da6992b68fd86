"""Cost-attribution profiler: exact reconciliation and paper-shaped output.

The acceptance bar: attributed phases must reconcile with the end-to-end
``LatencyPoint`` within 1% for every control-flow mode, and the breakdown
must tell the paper's story — system-memory polling pays per-poll PCIe
round trips (Table I), host WR generation is negligible (§V-B1).
"""

import json

import pytest

from repro.perf import PHASE_ORDER, profile_pingpong, render_profile

EXTOLL_MODES = ("dev2dev-direct", "dev2dev-pollOnGPU", "dev2dev-assisted",
                "dev2dev-hostControlled")
IB_MODES = ("dev2dev-bufOnGPU", "dev2dev-bufOnHost", "dev2dev-assisted",
            "dev2dev-hostControlled")
ITER, WARMUP = 6, 1


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for mode in EXTOLL_MODES:
        out[("extoll", mode)] = profile_pingpong("extoll", mode, 64,
                                                 iterations=ITER,
                                                 warmup=WARMUP)
    for mode in IB_MODES:
        out[("ib", mode)] = profile_pingpong("ib", mode, 64,
                                             iterations=ITER, warmup=WARMUP)
    return out


def test_reconciles_within_one_percent_every_mode(profiles):
    for (fabric, mode), p in profiles.items():
        assert p.reconciles, (fabric, mode, p.reconciliation_error)
        # In practice the phase spans tile the region exactly.
        assert p.reconciliation_error < 1e-9, (fabric, mode)


def test_phases_are_a_partition(profiles):
    for p in profiles.values():
        assert all(c.seconds >= 0.0 for c in p.phases)
        assert sum(c.share for c in p.phases) == pytest.approx(1.0, abs=1e-9)
        names = [c.name for c in p.phases]
        assert names == [n for n in PHASE_ORDER if n in names]  # canonical order
        assert len(names) == len(set(names))


def test_sysmem_polling_pays_pcie_per_poll(profiles):
    """Table I: direct mode polls notifications in system memory — each
    poll is a PCIe round trip — while pollOnGPU polls device memory and
    its polling-window PCIe share collapses."""
    direct = profiles[("extoll", "dev2dev-direct")]
    devmem = profiles[("extoll", "dev2dev-pollOnGPU")]
    assert direct.per_iteration_us("completion-mmio") > \
        3.0 * devmem.per_iteration_us("completion-mmio")


def test_host_wr_generation_negligible(profiles):
    """§V-B1: host-controlled WR generation costs far less than the GPU
    assembling the same descriptor."""
    gpu = profiles[("extoll", "dev2dev-direct")]
    host = profiles[("extoll", "dev2dev-hostControlled")]
    assert host.per_iteration_us("wqe-generation") < \
        0.5 * gpu.per_iteration_us("wqe-generation")


def test_assisted_mode_reports_host_assist(profiles):
    for fabric in ("extoll", "ib"):
        p = profiles[(fabric, "dev2dev-assisted")]
        assert p.phase("host-assist").seconds > 0.0
        assert p.phase("wqe-generation").seconds == 0.0
    assert profiles[("extoll", "dev2dev-direct")].phase("host-assist") \
        .seconds == 0.0


def test_to_dict_is_json_safe_and_complete(profiles):
    p = profiles[("extoll", "dev2dev-direct")]
    doc = json.loads(json.dumps(p.to_dict()))
    assert doc["reconciles"] is True
    assert doc["point"]["latency_us"] == pytest.approx(p.point.latency_us)
    assert sum(row["us"] for row in doc["phases"]) == \
        pytest.approx(doc["attributed_us"])
    assert any(k.startswith("net.") for k in doc["counters"])


def test_render_is_readable(profiles):
    text = render_profile(profiles[("extoll", "dev2dev-direct")])
    for needle in ("wqe-generation", "completion-polling",
                   "[PASS] reconciliation: ", "poll/post ratio"):
        assert needle in text
