"""Happens-before DAG assembly from flow-event breadcrumbs.

The builder consumes a :class:`~repro.obs.tracer.SpanTracer`'s ``flows``
list (emission order == deterministic simulator order) and indexes it
three ways:

* **actor program order** — every actor's events, in order; the implicit
  serialization edge of one rank / NIC unit / driver,
* **address ladders** — for each ``(addr, kind)``, the occurrences in
  order; the i-th occurrence is *wave* i, and the i-th ``pst`` at an
  address pairs with the i-th ``txr``/``dlv``/... there (sound in
  fault-free runs: slot reuse at one address is credit-separated, and
  EXTOLL keeps same-path puts in order),
* **request brackets** — ``req.begin``/``req.end`` and the per-rank
  ``rank.end`` keyed by their ``req`` attribute.

:meth:`CausalDag.predecessor` resolves one event's critical predecessor:
the latest of its *causal candidate set*, which is deliberately narrow
per kind (see the table in the code) so the backward walk can never
escape the current request's bracket — credit-wait references
(``crd.waited_on``, chain ``wait_hint``) label segments but never redirect
the walk into the credit flow's own history.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..errors import CausalError
from ..obs.tracer import FlowRecord
from .events import KNOWN_KINDS

#: Kinds whose only causal input is their actor's previous event.
#: ``inj`` qualifies: a source-side credit stall (``hop.crd``) is emitted
#: by the same rank actor, so program order already covers it.
_ACTOR_ONLY = frozenset({"snd", "rcv", "crd", "stg", "cmp", "rank.end",
                         "chain.fire", "chain.done", "inj"})

#: Same-message ladder: kind -> the upstream kind of its wave twin.
_LADDER = {"txr": "pst", "txd": "txr", "rxs": "txd", "dlv": "rxs"}

#: Fabric-hop kinds chained per address in emission order: one message's
#: multi-hop traversal (inj -> [hop.crd ->] hop -> ... -> eject).  Wave
#: pairing cannot express this — several ``hop`` events share one address
#: — so each address keeps its own ordered chain.
_FABRIC_CHAIN = frozenset({"inj", "hop.crd", "hop", "eject"})


def _key(ev: FlowRecord) -> Tuple[float, int]:
    return (ev.time, ev.seq)


class CausalDag:
    """Index + predecessor rules over one run's flow events."""

    def __init__(self, flows: Sequence[FlowRecord]) -> None:
        self.flows: List[FlowRecord] = list(flows)
        self.unknown_kinds: Set[str] = set()
        self._by_actor: Dict[str, List[FlowRecord]] = {}
        self._actor_pos: Dict[int, int] = {}
        self._ladders: Dict[tuple, List[FlowRecord]] = {}
        self._wave: Dict[int, int] = {}
        self._chains: Dict[object, List[FlowRecord]] = {}
        self._chain_pos: Dict[int, int] = {}
        self._req_begin: Dict[int, FlowRecord] = {}
        self._req_end: Dict[int, FlowRecord] = {}
        self._rank_ends: Dict[int, List[FlowRecord]] = {}
        for ev in self.flows:
            if ev.kind not in KNOWN_KINDS:
                self.unknown_kinds.add(ev.kind)
            order = self._by_actor.setdefault(ev.actor, [])
            self._actor_pos[ev.seq] = len(order)
            order.append(ev)
            if ev.addr is not None:
                ladder = self._ladders.setdefault((ev.addr, ev.kind), [])
                self._wave[ev.seq] = len(ladder)
                ladder.append(ev)
                if ev.kind in _FABRIC_CHAIN:
                    chain = self._chains.setdefault(ev.addr, [])
                    self._chain_pos[ev.seq] = len(chain)
                    chain.append(ev)
            if ev.kind == "req.begin":
                self._req_begin[ev.attrs["req"]] = ev
            elif ev.kind == "req.end":
                self._req_end[ev.attrs["req"]] = ev
            elif ev.kind == "rank.end":
                self._rank_ends.setdefault(ev.attrs["req"], []).append(ev)

    # -- lookups -------------------------------------------------------------------
    def requests(self) -> List[int]:
        """Request ids with a complete begin/end bracket, in order."""
        return sorted(r for r in self._req_begin if r in self._req_end)

    def bracket(self, req: int) -> Tuple[FlowRecord, FlowRecord]:
        try:
            return self._req_begin[req], self._req_end[req]
        except KeyError:
            raise CausalError(f"request {req} has no complete "
                              f"req.begin/req.end bracket") from None

    def rank_ends(self, req: int) -> List[FlowRecord]:
        return list(self._rank_ends.get(req, []))

    def actor_pred(self, ev: FlowRecord) -> Optional[FlowRecord]:
        pos = self._actor_pos[ev.seq]
        return self._by_actor[ev.actor][pos - 1] if pos else None

    def chain_pred(self, ev: FlowRecord) -> Optional[FlowRecord]:
        """The previous fabric-hop event of ``ev``'s message, or None at
        the head of the chain (the injection)."""
        pos = self._chain_pos.get(ev.seq)
        if pos is None or pos == 0:
            return None
        return self._chains[ev.addr][pos - 1]

    def wave_pred(self, kind: str,
                  ev: FlowRecord) -> Optional[FlowRecord]:
        """``kind``'s event in the same wave at ``ev``'s address."""
        wave = self._wave.get(ev.seq)
        if wave is None:
            return None
        ladder = self._ladders.get((ev.addr, kind))
        if ladder is None or wave >= len(ladder):
            return None
        return ladder[wave]

    # -- predecessor rules ---------------------------------------------------------
    def candidates(self, ev: FlowRecord) -> List[FlowRecord]:
        """The causal candidate set of ``ev`` (unfiltered may hold None)."""
        kind = ev.kind
        if kind == "req.begin":
            return []                                    # walk terminus
        if kind == "req.end":
            # The last rank to finish IS the critical dependency; the
            # others' gaps are the per-rank slack.
            cands: List[Optional[FlowRecord]] = \
                list(self._rank_ends.get(ev.attrs["req"], []))
        elif kind == "rank.begin":
            cands = [self._req_begin.get(ev.attrs["req"])]
        elif kind in _ACTOR_ONLY:
            cands = [self.actor_pred(ev)]
        elif kind == "pst":
            if ev.attrs.get("via") == "chain":
                # Chain-fired posts continue at THIS message's staging:
                # the trigger unit's program order would walk into other
                # chains' history, and the arming counter's credit flow is
                # label-only (wait_hint) by design.
                cands = [self.wave_pred("stg", ev)]
            else:
                cands = [self.actor_pred(ev), self.wave_pred("stg", ev)]
        elif kind in _LADDER:
            cands = [self.wave_pred(_LADDER[kind], ev)]
        elif kind in ("hop", "eject"):
            # Mid-chain fabric events: the relay that handed the packet
            # over.  Never the switch actor's program order — that would
            # walk into OTHER messages relayed by the same switch.
            cands = [self.chain_pred(ev)]
        elif kind == "hop.crd":
            # A stalled credit gate mid-fabric chains to the previous hop;
            # at the source (chain head) the emitting actor is the sending
            # rank itself, whose program order is sound.
            prev = self.chain_pred(ev)
            cands = [prev] if prev is not None else [self.actor_pred(ev)]
        elif kind in ("rcd", "mrx"):
            cands = [self.actor_pred(ev), self.wave_pred("dlv", ev),
                     self.wave_pred("eject", ev)]
        elif kind == "snd.done":
            cands = [self.actor_pred(ev), self.wave_pred("txd", ev),
                     self.wave_pred("txr", ev)]
        else:
            cands = [self.actor_pred(ev)]
        mine = _key(ev)
        return [c for c in cands if c is not None and _key(c) < mine]

    def predecessor(self, ev: FlowRecord) -> Optional[FlowRecord]:
        """The critical (latest-arriving) causal predecessor of ``ev``."""
        cands = self.candidates(ev)
        if not cands:
            return None
        return max(cands, key=_key)


__all__ = ["CausalDag"]
