"""The application workload suite: ML communication patterns as requests.

Each workload describes ONE service request as a set of per-rank *op
scripts* — plain generators over the ``send``/``recv``/``compute``
vocabulary the collective schedules of :mod:`repro.collectives.algorithms`
are written in.  The scripts never touch a channel, a work request, or an
MPI request: :mod:`repro.workloads.transport` runs the same script under
every control mode (hostControlled / dev2dev-direct / engine /
triggered-MPI) through those layers' interpreters, which is what makes
the four-mode sweep a single implementation.  All
payloads are deterministic functions of ``(request, src rank, peer)``, so
every mode's result is verified exactly and replays bit-identically.

The four patterns are the ones the *GPU-centric Communication Schemes*
survey (arXiv:2503.24230) names as the service-scale stressors:

* ``trainstep`` — data-parallel training step: exposed (non-overlapped)
  gradient compute followed by the ring all-reduce script of
  :mod:`repro.collectives.algorithms`.
* ``moe``       — mixture-of-experts all-to-all: token dispatch to every
  peer, expert compute, combine back along the reverse paths.
* ``kvcache``   — prefill→decode KV-cache handover: large asymmetric
  chunked puts one way, one tiny ack back.
* ``psfanin``   — parameter-server fan-in: every worker pushes gradients
  to rank 0, which reduces in fixed order and fans the update back out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generator, List

from ..collectives.algorithms import all_reduce, pack, unpack
from ..errors import BenchmarkError

#: The 8-byte ack a decode node returns after absorbing a KV handover.
_ACK = bytes(range(8))


def payload(req: int, src: int, dst: int, nbytes: int) -> bytes:
    """Deterministic, distinct bytes for (request, src, dst)."""
    base = (req * 131 + src * 37 + dst * 17) % 251
    return bytes((base + 11 * i + 5) % 251 for i in range(nbytes))


def grad_vector(req: int, rank: int, elements: int) -> List[float]:
    """Deterministic per-(request, rank) float64 gradient vector."""
    return [float((req * 31 + 7 * rank + 3 * i + 1) % 97)
            for i in range(elements)]


def expert_transform(data: bytes) -> bytes:
    """What an expert does to a token chunk (cheap, deterministic)."""
    return bytes((b * 2 + 1) % 251 for b in data)


@dataclass(frozen=True)
class Workload:
    """One service-request shape, runnable under every control mode."""

    name: str
    description: str
    connectivity: str     # channel layout the mode transports must wire
    min_nodes: int
    #: (req, rank, nodes, size) -> op generator returning the rank's result
    script: Callable[[int, int, int, int], Generator]
    #: (req, rank, nodes, size, result) -> bool — exact host-side check
    verify: Callable[[int, int, int, int, object], bool]
    #: (nodes, size) -> payload bytes one request moves across all ranks
    request_bytes: Callable[[int, int], int]
    knobs: Dict[str, float] = field(default_factory=dict)


# =============================================================================
# trainstep — all-reduce dominated, compute/comm overlap knob
# =============================================================================

def _ring_all_reduce(req: int, rank: int, nodes: int, size: int):
    """The gradient all-reduce: ``nodes`` chunks of ``size`` bytes."""
    return all_reduce("ring", rank, nodes,
                      grad_vector(req, rank, nodes * (size // 8)))


def _verify_sum(req: int, rank: int, nodes: int, size: int,
                result: object) -> bool:
    vectors = [grad_vector(req, r, nodes * (size // 8))
               for r in range(nodes)]
    expected = [sum(col) for col in zip(*vectors)]
    return (isinstance(result, list) and len(result) == len(expected)
            and all(abs(a - b) <= 1e-9 for a, b in zip(result, expected)))


def _trainstep(compute_instr: int, overlap: float) -> Workload:
    exposed = int(compute_instr * (1.0 - overlap))

    def script(req: int, rank: int, nodes: int, size: int):
        # The overlap knob hides that fraction of the backward-pass compute
        # behind the collective; only the exposed remainder serializes in
        # front of it.
        if exposed:
            yield ("compute", exposed)
        result = yield from _ring_all_reduce(req, rank, nodes, size)
        return result

    return Workload(
        name="trainstep",
        description="data-parallel training step: exposed compute + ring "
                    "all-reduce of the gradient vector",
        connectivity="ring", min_nodes=2, script=script, verify=_verify_sum,
        request_bytes=lambda nodes, size: 2 * (nodes - 1) * nodes * size,
        knobs={"compute_instr": compute_instr, "overlap": overlap})


# =============================================================================
# moe — all-to-all dispatch/combine
# =============================================================================

def _moe(expert_instr: int) -> Workload:
    def script(req: int, rank: int, nodes: int, size: int):
        peers = [p for p in range(nodes) if p != rank]
        # Dispatch: route this rank's token chunks to every expert.  Sends
        # are slot-buffered, so send-all-then-recv-all never deadlocks.
        for p in peers:
            yield ("send", p, payload(req, rank, p, size))
        inbox = {}
        for p in peers:
            inbox[p] = yield ("recv", p)
        # Expert FFN over every received chunk.
        yield ("compute", expert_instr * len(peers))
        # Combine: processed tokens travel the reverse paths.
        for p in peers:
            yield ("send", p, expert_transform(inbox[p]))
        combined = {}
        for p in peers:
            combined[p] = yield ("recv", p)
        return combined

    def verify(req: int, rank: int, nodes: int, size: int,
               result: object) -> bool:
        if not isinstance(result, dict):
            return False
        peers = [p for p in range(nodes) if p != rank]
        return (sorted(result) == peers
                and all(result[p] == expert_transform(
                            payload(req, rank, p, size))
                        for p in peers))

    return Workload(
        name="moe",
        description="MoE all-to-all: token dispatch to every expert, "
                    "expert compute, combine along the reverse paths",
        connectivity="full", min_nodes=2, script=script, verify=verify,
        request_bytes=lambda nodes, size: 2 * nodes * (nodes - 1) * size,
        knobs={"expert_instr": expert_instr})


# =============================================================================
# kvcache — prefill -> decode handover, large asymmetric puts
# =============================================================================

def _kvcache(kv_chunks: int, append_instr: int) -> Workload:
    def script(req: int, rank: int, nodes: int, size: int):
        pairs = nodes // 2
        if rank >= 2 * pairs:       # odd node out: no pair, no traffic
            return None
        if rank < pairs:            # prefill side: stream the cache over
            peer = rank + pairs
            for c in range(kv_chunks):
                yield ("send", peer, payload(req + c, rank, peer, size))
            ack = yield ("recv", peer)
            return ack
        peer = rank - pairs         # decode side: absorb, append, ack
        chunks = []
        for _c in range(kv_chunks):
            chunks.append((yield ("recv", peer)))
            yield ("compute", append_instr)
        yield ("send", peer, _ACK)
        return chunks

    def verify(req: int, rank: int, nodes: int, size: int,
               result: object) -> bool:
        pairs = nodes // 2
        if rank >= 2 * pairs:
            return result is None
        if rank < pairs:
            return result == _ACK
        peer = rank - pairs
        expected = [payload(req + c, peer, rank, size)
                    for c in range(kv_chunks)]
        return result == expected

    return Workload(
        name="kvcache",
        description="KV-cache transfer prefill->decode: chunked large puts "
                    "one way, an 8-byte ack back",
        connectivity="full", min_nodes=2, script=script, verify=verify,
        request_bytes=lambda nodes, size:
            (nodes // 2) * (kv_chunks * size + len(_ACK)),
        knobs={"kv_chunks": kv_chunks, "append_instr": append_instr})


# =============================================================================
# psfanin — parameter-server fan-in / fan-out
# =============================================================================

def _psfanin(reduce_instr_per_el: int) -> Workload:
    def script(req: int, rank: int, nodes: int, size: int):
        elements = size // 8
        if rank == 0:               # the server: gather, reduce, fan out
            total = [0.0] * elements
            for w in range(1, nodes):
                grads = unpack((yield ("recv", w)))
                yield ("compute", reduce_instr_per_el * elements)
                total = [a + b for a, b in zip(total, grads)]
            update = pack(total)
            for w in range(1, nodes):
                yield ("send", w, update)
            return total
        yield ("send", 0, pack(grad_vector(req, rank, elements)))
        update = yield ("recv", 0)
        return unpack(update)

    def verify(req: int, rank: int, nodes: int, size: int,
               result: object) -> bool:
        elements = size // 8
        total = [0.0] * elements
        # Same fixed worker order as the server: float sums are bit-exact.
        for w in range(1, nodes):
            total = [a + b
                     for a, b in zip(total, grad_vector(req, w, elements))]
        return result == total

    return Workload(
        name="psfanin",
        description="parameter-server fan-in: workers push gradients to "
                    "rank 0, which reduces in order and fans the update "
                    "back out",
        connectivity="full", min_nodes=2, script=script, verify=verify,
        request_bytes=lambda nodes, size: 2 * (nodes - 1) * size,
        knobs={"reduce_instr_per_el": reduce_instr_per_el})


# =============================================================================
# pingpong — the paper's §V latency microbenchmark as a request
# =============================================================================

def _pingpong(rounds: int, skew_rank: int, skew_instr: int) -> Workload:
    """Rank 0 and rank 1 exchange one message per round; other ranks idle.
    The skew knobs charge ``skew_instr`` extra instructions on
    ``skew_rank`` before its first op — the forced-straggler canary the
    critical-path analyzer must name.  A skew on any other rank (``-1``
    is none) would never run, so it is rejected."""
    if skew_rank not in (-1, 0, 1):
        raise BenchmarkError(
            f"workload 'pingpong' runs ranks 0 and 1 only; a skew on rank "
            f"{skew_rank} would never run")

    def script(req: int, rank: int, nodes: int, size: int):
        if rank >= 2:
            return None
        if rank == skew_rank and skew_instr:
            yield ("compute", skew_instr)
        if rank == 0:
            echoes = []
            for r in range(rounds):
                yield ("send", 1, payload(req + r, 0, 1, size))
                echoes.append((yield ("recv", 1)))
            return echoes
        for r in range(rounds):
            ball = yield ("recv", 0)
            yield ("send", 0, expert_transform(ball))
        return None

    def verify(req: int, rank: int, nodes: int, size: int,
               result: object) -> bool:
        if rank != 0:
            return result is None
        expected = [expert_transform(payload(req + r, 0, 1, size))
                    for r in range(rounds)]
        return result == expected

    return Workload(
        name="pingpong",
        description="rank 0 <-> rank 1 request/echo rounds: the latency "
                    "microbenchmark in service-request form",
        connectivity="ring", min_nodes=2, script=script, verify=verify,
        request_bytes=lambda nodes, size: 2 * rounds * size,
        knobs={"rounds": rounds, "skew_rank": skew_rank,
               "skew_instr": skew_instr})


# =============================================================================
# allreduce — the bare ring collective (trainstep without the compute)
# =============================================================================

def _allreduce(skew_rank: int, skew_instr: int) -> Workload:
    def script(req: int, rank: int, nodes: int, size: int):
        if rank == skew_rank and skew_instr:
            yield ("compute", skew_instr)
        result = yield from _ring_all_reduce(req, rank, nodes, size)
        return result

    return Workload(
        name="allreduce",
        description="bare ring all-reduce of one gradient vector, with a "
                    "forced-straggler skew knob",
        connectivity="ring", min_nodes=2, script=script, verify=_verify_sum,
        request_bytes=lambda nodes, size: 2 * (nodes - 1) * nodes * size,
        knobs={"skew_rank": skew_rank, "skew_instr": skew_instr})


# =============================================================================
# registry
# =============================================================================

#: The suite with its default knobs, by name.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        _trainstep(compute_instr=2000, overlap=0.5),
        _moe(expert_instr=400),
        _kvcache(kv_chunks=4, append_instr=100),
        _psfanin(reduce_instr_per_el=2),
        _pingpong(rounds=4, skew_rank=-1, skew_instr=0),
        _allreduce(skew_rank=-1, skew_instr=0),
    )
}


def get_workload(name: str, **knobs) -> Workload:
    """Resolve a workload by name; knob overrides rebuild it, and a knob
    the workload does not take is rejected."""
    if name not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {name!r} (choose from: "
                             f"{', '.join(sorted(WORKLOADS))})")
    if not knobs:
        return WORKLOADS[name]
    unknown = sorted(set(knobs) - set(WORKLOADS[name].knobs))
    if unknown:
        raise BenchmarkError(
            f"workload {name!r} takes no knob {', '.join(unknown)} "
            f"(it takes: {', '.join(sorted(WORKLOADS[name].knobs))})")
    builders = {
        "trainstep": lambda: _trainstep(
            compute_instr=int(knobs.get("compute_instr", 2000)),
            overlap=float(knobs.get("overlap", 0.5))),
        "moe": lambda: _moe(expert_instr=int(knobs.get("expert_instr",
                                                       400))),
        "kvcache": lambda: _kvcache(
            kv_chunks=int(knobs.get("kv_chunks", 4)),
            append_instr=int(knobs.get("append_instr", 100))),
        "psfanin": lambda: _psfanin(
            reduce_instr_per_el=int(knobs.get("reduce_instr_per_el", 2))),
        "pingpong": lambda: _pingpong(
            rounds=int(knobs.get("rounds", 4)),
            skew_rank=int(knobs.get("skew_rank", -1)),
            skew_instr=int(knobs.get("skew_instr", 0))),
        "allreduce": lambda: _allreduce(
            skew_rank=int(knobs.get("skew_rank", -1)),
            skew_instr=int(knobs.get("skew_instr", 0))),
    }
    return builders[name]()
