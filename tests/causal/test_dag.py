"""CausalDag walk rules over synthetic flow-event sequences.

Every rule the backward walk relies on, checked against hand-built
traces: actor program order, same-wave address ladders, the chain-fired
``pst`` exception, cross-node joins, the (time, seq) happens-before
filter, and the req/rank bracket bookkeeping.
"""

from __future__ import annotations

import pytest

from repro.causal.dag import CausalDag
from repro.causal.events import KNOWN_KINDS
from repro.errors import CausalError
from repro.obs.tracer import FlowRecord


def make_trace(rows):
    """rows: (time, kind, actor[, addr[, attrs]]) -> FlowRecords with
    emission-order seq, exactly as a SpanTracer would have stamped them."""
    flows = []
    for seq, row in enumerate(rows):
        time, kind, actor = row[0], row[1], row[2]
        addr = row[3] if len(row) > 3 else None
        attrs = row[4] if len(row) > 4 else {}
        flows.append(FlowRecord(seq, time, kind, actor, addr, attrs))
    return flows


A = (1, 0x1000)        # one message's address key (dst_node, dst_nla)


def one_message_rows():
    """req 0: rank 0 puts one message to rank 1; rank 1 computes on it."""
    return [
        (0.0, "req.begin", "driver", None, {"req": 0}),
        (0.0, "rank.begin", "n0", None, {"req": 0}),
        (0.0, "rank.begin", "n1", None, {"req": 0}),
        (1.0, "snd", "n0"),
        (2.0, "crd", "n0"),
        (3.0, "stg", "n0", A),
        (4.0, "pst", "n0", A, {"via": "mmio"}),
        (5.0, "txr", "nic0.rma", A),
        (6.0, "txd", "nic0.rma", A),
        (2.5, "rcv", "n1", A),
        (7.0, "rxs", "nic1.rma", A),
        (8.0, "dlv", "nic1.rma", A),
        (9.0, "rcd", "n1", A, {"via": "poll"}),
        (10.0, "cmp", "n1"),
        (4.5, "rank.end", "n0", None, {"req": 0}),
        (10.5, "rank.end", "n1", None, {"req": 0}),
        (11.0, "req.end", "driver", None, {"req": 0}),
    ]


@pytest.fixture()
def dag():
    return CausalDag(make_trace(one_message_rows()))


def _by_kind(dag, kind, actor=None):
    for ev in dag.flows:
        if ev.kind == kind and (actor is None or ev.actor == actor):
            return ev
    raise AssertionError(f"no {kind} in trace")


def test_brackets_and_requests(dag):
    assert dag.requests() == [0]
    begin, end = dag.bracket(0)
    assert (begin.kind, end.kind) == ("req.begin", "req.end")
    assert len(dag.rank_ends(0)) == 2
    with pytest.raises(CausalError, match="no complete"):
        dag.bracket(7)


def test_actor_program_order(dag):
    crd = _by_kind(dag, "crd")
    assert dag.actor_pred(crd).kind == "snd"
    first = _by_kind(dag, "rank.begin", "n0")
    assert dag.actor_pred(first) is None


def test_ladder_wave_pairing(dag):
    dlv = _by_kind(dag, "dlv")
    assert dag.wave(dlv) == 0
    assert dag.wave_pred("rxs", dlv).kind == "rxs"
    txr = _by_kind(dag, "txr")
    assert dag.predecessor(txr).kind == "pst"
    txd = _by_kind(dag, "txd")
    assert dag.predecessor(txd).kind == "txr"


def test_cross_node_join_picks_the_late_delivery(dag):
    """rcd's candidates are its actor pred (rcv @2.5) and the same-wave
    dlv (@8.0); the critical predecessor is the LATER one — the remote
    delivery the receiver actually waited for."""
    rcd = _by_kind(dag, "rcd")
    pred = dag.predecessor(rcd)
    assert pred.kind == "dlv"
    assert pred.actor == "nic1.rma"


def test_req_end_takes_the_latest_rank_end(dag):
    end = _by_kind(dag, "req.end")
    pred = dag.predecessor(end)
    assert pred.kind == "rank.end" and pred.actor == "n1"


def test_req_begin_is_the_walk_terminus(dag):
    begin = _by_kind(dag, "req.begin")
    assert dag.candidates(begin) == []
    assert dag.predecessor(begin) is None


def test_happens_before_filter_rejects_future_candidates():
    """A same-address dlv stamped AFTER the rcd (possible only in a
    malformed trace) must not be offered as a predecessor."""
    rows = [
        (0.0, "rcv", "n1", A),
        (1.0, "rcd", "n1", A, {"via": "poll"}),
        (2.0, "dlv", "nic1.rma", A),
    ]
    dag = CausalDag(make_trace(rows))
    rcd = dag.flows[1]
    assert [c.kind for c in dag.candidates(rcd)] == ["rcv"]


def test_equal_time_ties_break_on_emission_seq():
    rows = [
        (0.0, "req.begin", "driver", None, {"req": 0}),
        (0.0, "rank.begin", "n0", None, {"req": 0}),
    ]
    dag = CausalDag(make_trace(rows))
    assert dag.predecessor(dag.flows[1]).kind == "req.begin"
    # ...and never the other way around: req.begin has no candidates.
    assert dag.candidates(dag.flows[0]) == []


def test_chain_fired_pst_walks_to_its_own_staging():
    """A chain-fired pst must hop to THIS message's stg, not follow the
    trigger unit's program order into another chain's history."""
    B = (1, 0x2000)
    rows = [
        (0.0, "stg", "n0", A),
        (0.5, "stg", "n0", B),
        (1.0, "chain.fire", "nic0.trig"),
        (2.0, "pst", "nic0.trig", A, {"via": "chain"}),
        (3.0, "pst", "nic0.trig", B, {"via": "chain"}),
    ]
    dag = CausalDag(make_trace(rows))
    pst_b = dag.flows[4]
    pred = dag.predecessor(pst_b)
    assert pred.kind == "stg" and pred.addr == B


def test_mmio_pst_uses_actor_order_and_staging():
    dag = CausalDag(make_trace(one_message_rows()))
    pst = _by_kind(dag, "pst")
    kinds = {c.kind for c in dag.candidates(pst)}
    assert kinds == {"stg"}            # actor pred IS the stg here
    assert dag.predecessor(pst).kind == "stg"


def test_snd_done_joins_on_requester_completion():
    rows = [
        (0.0, "pst", "n0", A, {"via": "mmio"}),
        (1.0, "txr", "nic0.rma", A),
        (2.0, "txd", "nic0.rma", A),
        (3.0, "snd.done", "n0", A),
    ]
    dag = CausalDag(make_trace(rows))
    done = dag.flows[3]
    pred = dag.predecessor(done)
    assert pred.kind == "txd"          # the latest of {pst, txd, txr}


def test_unknown_kinds_are_flagged_not_fatal():
    dag = CausalDag(make_trace([(0.0, "zap", "n0")]))
    assert dag.unknown_kinds == {"zap"}
    assert "zap" not in KNOWN_KINDS


def test_second_wave_pairs_with_second_wave():
    """Two messages reusing one address: the i-th dlv pairs with the i-th
    rxs, never the first one seen."""
    rows = [
        (0.0, "rxs", "nic1.rma", A),
        (1.0, "dlv", "nic1.rma", A),
        (2.0, "rxs", "nic1.rma", A),
        (3.0, "dlv", "nic1.rma", A),
    ]
    dag = CausalDag(make_trace(rows))
    second_dlv = dag.flows[3]
    assert dag.wave(second_dlv) == 1
    assert dag.wave_pred("rxs", second_dlv).seq == 2
