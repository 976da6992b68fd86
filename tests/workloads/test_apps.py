"""The application workload suite: registry, op scripts, and knobs."""

from __future__ import annotations

import inspect

import pytest

from repro.errors import BenchmarkError
from repro.workloads import WORKLOADS, WorkloadRun, get_workload

EXPECTED = {"trainstep", "moe", "kvcache", "psfanin", "pingpong",
            "allreduce"}


def test_registry_holds_the_suite():
    assert set(WORKLOADS) == EXPECTED
    for name, workload in WORKLOADS.items():
        assert workload.name == name
        assert workload.connectivity in ("ring", "full")
        assert workload.min_nodes >= 2
        assert workload.description
        assert workload.request_bytes(4, 256) > 0


def test_scripts_are_generators_of_op_words():
    """Every workload script is a plain generator over the three-word
    vocabulary — the write-once form each control mode interprets."""
    for workload in WORKLOADS.values():
        gen = workload.script(0, 0, 4, 64)
        assert inspect.isgenerator(gen)
        op = next(gen)
        assert op[0] in ("send", "recv", "compute")
        gen.close()


def test_get_workload_unknown_name():
    with pytest.raises(BenchmarkError, match="unknown workload"):
        get_workload("btree")


def test_get_workload_rejects_a_knob_it_does_not_take():
    """A skew knob on a workload without one, or on a rank the workload
    never runs, is an error naming what it takes, not a run that silently
    ignores it."""
    with pytest.raises(BenchmarkError,
                       match=r"takes no knob skew_rank \(it takes: "
                             r"compute_instr, overlap\)"):
        get_workload("trainstep", skew_rank=1)
    assert get_workload("allreduce", skew_rank=1).knobs["skew_rank"] == 1
    for rank in (2, 3):
        with pytest.raises(BenchmarkError, match="runs ranks 0 and 1 only"):
            get_workload("pingpong", skew_rank=rank)
    assert get_workload("pingpong", skew_rank=1).knobs["skew_rank"] == 1


def test_knob_overrides_change_the_workload():
    """A zero-overlap training step exposes its full compute charge, so
    its service time must exceed the fully-overlapped variant's."""
    hidden = get_workload("trainstep", compute_instr=4000, overlap=1.0)
    exposed = get_workload("trainstep", compute_instr=4000, overlap=0.0)
    assert hidden.knobs["overlap"] == 1.0
    assert exposed.knobs["overlap"] == 0.0
    kw = dict(nodes=4, size=64, requests=2, loop="closed")
    fast = WorkloadRun(hidden, "hostControlled", **kw).execute()
    slow = WorkloadRun(exposed, "hostControlled", **kw).execute()
    assert fast.verified and slow.verified
    assert slow.mean_service > fast.mean_service


def test_verify_rejects_wrong_results():
    for workload in WORKLOADS.values():
        assert not workload.verify(0, 0, 4, 64, None)
        assert not workload.verify(0, 0, 4, 64, b"garbage")
