"""Critical-path extraction: telescoping, blame partition, stragglers.

All on the synthetic one-message trace from test_dag (hand-checkable
numbers), plus the failure modes extract_path must refuse to paper over.
"""

from __future__ import annotations

import pytest

from repro.causal.critpath import (PARTITION_TOLERANCE, RunAnalysis,
                                   analyze_run, extract_path)
from repro.causal.dag import CausalDag
from repro.errors import CausalError

from .test_dag import A, make_trace, one_message_rows


@pytest.fixture()
def path():
    return extract_path(CausalDag(make_trace(one_message_rows())), 0)


def test_path_telescopes_to_the_bracket(path):
    assert path.events[0].kind == "req.begin"
    assert path.events[-1].kind == "req.end"
    assert path.total == 11.0
    assert len(path.segments) == len(path.events) - 1
    # Consecutive segments share their boundary event...
    for left, right in zip(path.segments, path.segments[1:]):
        assert left.ev is right.pred
    # ...so the partition residual is float-roundoff at most.
    assert path.partition_residual() <= PARTITION_TOLERANCE


def test_reconcile_is_exact_against_the_bracket_time(path):
    recon = path.reconcile(11.0)
    assert recon["ok"]
    assert recon["error"] == 0.0
    assert recon["hops"] == len(path.segments)
    # A measurement the path does NOT telescope to must fail loudly.
    assert not path.reconcile(11.5)["ok"]


def test_blame_partition_hand_check(path):
    cats = path.categories()
    assert cats["wqe-generation"] == 2.0      # crd + stg
    assert cats["doorbell-mmio"] == 1.0       # pst via=mmio
    assert cats["data-dma"] == 2.0            # txr + dlv
    assert cats["wire"] == 2.0                # txd + rxs
    assert cats["completion-polling"] == 1.0  # rcd via=poll
    assert cats["compute"] == 1.0             # cmp
    assert cats["app"] == 2.0                 # snd + rank.end + req.end
    assert sum(cats.values()) == path.total


def test_cross_node_join_reports_the_receivers_wait(path):
    joins = [s for s in path.segments if s.edge == "blocked-on-remote"]
    assert len(joins) == 1
    (join,) = joins
    assert (join.pred.kind, join.ev.kind) == ("dlv", "rcd")
    # rcv was stamped at 2.5, the delivery landed at 8.0.
    assert join.wait == pytest.approx(5.5)
    assert path.remote_wait() == pytest.approx(5.5)


def test_straggler_is_path_time_ownership_not_latest_finisher(path):
    """rank 1 finishes last (rank.end @10.5 vs @4.5) but rank 0 owns more
    on-path time (its send-side staging rides the whole path) — the
    straggler call must follow the owned time."""
    assert path.rank_slack == {0: 6.5, 1: 0.5}
    assert path.rank_time[0] > path.rank_time[1]
    assert path.straggler == 0


def test_blocked_on_credit_segments():
    rows = [
        (0.0, "req.begin", "driver", None, {"req": 0}),
        (0.0, "rank.begin", "n0", None, {"req": 0}),
        (1.0, "snd", "n0"),
        (4.0, "crd", "n0", None, {"gated": True, "waited_on": A}),
        (5.0, "stg", "n0", A),
        (5.5, "rank.end", "n0", None, {"req": 0}),
        (6.0, "req.end", "driver", None, {"req": 0}),
    ]
    path = extract_path(CausalDag(make_trace(rows)), 0)
    seg = next(s for s in path.segments if s.ev.kind == "crd")
    assert seg.category == "blocked-on-credit"
    assert seg.edge == "blocked-on-credit"
    assert path.categories()["blocked-on-credit"] == 3.0


def test_dead_end_raises_instead_of_guessing():
    """An uninstrumented emission site (dlv with no rxs behind it and no
    actor history) must be a CausalError, not a silent short path."""
    rows = [
        (0.0, "req.begin", "driver", None, {"req": 0}),
        (1.0, "rcv", "n1", A),
        (2.0, "dlv", "nic1.rma", A),
        (3.0, "rcd", "n1", A, {"via": "poll"}),
        (3.5, "rank.end", "n1", None, {"req": 0}),
        (4.0, "req.end", "driver", None, {"req": 0}),
    ]
    with pytest.raises(CausalError, match="dead-ends"):
        extract_path(CausalDag(make_trace(rows)), 0)


def test_run_analysis_aggregates_and_gates():
    dag = CausalDag(make_trace(one_message_rows()))
    analysis = RunAnalysis(paths=[extract_path(dag, 0)])
    blame = analysis.blame()
    cats = list(blame)
    # Report order: the transport phases come before compute/app.
    assert cats.index("data-dma") < cats.index("compute") < cats.index("app")
    assert sum(blame.values()) == pytest.approx(11.0)
    assert abs(sum(analysis.blame_shares().values()) - 1.0) < 1e-12
    assert analysis.stragglers() == {0: 0}
    assert analysis.slack_histograms() == {0: [6.5], 1: [0.5]}
    recon = analysis.reconcile([11.0])
    assert recon["ok"] and recon["max_error"] == 0.0
    with pytest.raises(CausalError, match="no measured service time"):
        analysis.reconcile([])


def test_analyze_run_requires_brackets():
    class Empty:
        flows = []

    with pytest.raises(CausalError, match="no req.begin/req.end"):
        analyze_run(Empty())
