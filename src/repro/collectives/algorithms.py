"""Every collective schedule, written once as an op script.

A schedule is a plain generator over a three-word op vocabulary:

* ``("send", peer, data)`` — hand ``data`` (bytes) to ``peer``;
* ``("recv", peer)`` — the next message from ``peer``; its payload bytes
  come back as the value of the ``yield``;
* ``("compute", instructions)`` — charge local arithmetic.

A script never touches a channel, a packet or a request.  Each transport
supplies only an interpreter:

* :meth:`repro.collectives.comm.RankComm.run` — msglib channels under the
  three channel control modes (and the workloads' engine mode, which
  passes in its own send);
* :func:`repro.mpi.collectives.interpret` — triggered-MPI chains: sends
  posted without waiting and drained at script end;
* :meth:`repro.fabrics.collective.FabricHost.run` — packet-level fabrics,
  where ``compute`` is free.

Every reduction applies ``op(owned, incoming)`` in a fixed schedule order,
so one schedule gives bit-identical results on every transport, and the
three all-reduce schedules agree bit for bit on integer-valued inputs.
Scripts return their result; interpreters count the sends.

Next to the schedules live the reduction table, the float64 wire format
(:func:`pack`/:func:`unpack`) and the closed forms the benchmarks check
the schedules against.  Constructors validate eagerly — before the first
simulated event — and raise :class:`~repro.errors.ConfigError`.

Deadlock freedom: every transport buffers sends (msglib slot credit, MPI
nonblocking ``isend``, fabric injection), so the uniform
send-before-recv order below never blocks on an unposted receive.
"""

from __future__ import annotations

import struct
from typing import Callable, List, Optional

from ..errors import ConfigError

#: The 8-byte token circulated by :func:`barrier`.
_TOKEN = struct.pack("<Q", 0xB0)

#: Element-wise reduction operators, each applied as ``op(owned, incoming)``.
REDUCE_OPS = {
    "sum": lambda a, b: a + b,
    "max": lambda a, b: a if a >= b else b,
    "min": lambda a, b: a if a <= b else b,
    "prod": lambda a, b: a * b,
}

#: The all-reduce schedules, by name.
ALLREDUCE_ALGORITHMS = ("ring", "rh", "tree")


def pack(values: List[float]) -> bytes:
    """The float64 wire format every all-reduce message uses."""
    return struct.pack(f"<{len(values)}d", *values)


def unpack(data: bytes) -> List[float]:
    return list(struct.unpack(f"<{len(data) // 8}d", data))


def resolve_reduce_op(op: str) -> Callable:
    """The combiner for ``op``, or :class:`ConfigError` with the choices."""
    try:
        return REDUCE_OPS[op]
    except KeyError:
        raise ConfigError(
            f"unknown reduction op {op!r} "
            f"(choose from: {', '.join(sorted(REDUCE_OPS))})") from None


# -- closed forms -------------------------------------------------------------

def _depth(algorithm: str, n: int) -> int:
    """``ceil(log2 N)`` once ``algorithm`` and ``n`` are known to fit."""
    if algorithm not in ALLREDUCE_ALGORITHMS:
        raise ConfigError(
            f"unknown all-reduce algorithm {algorithm!r} "
            f"(choose from: {', '.join(ALLREDUCE_ALGORITHMS)})")
    if n < 2:
        raise ConfigError(f"all-reduce needs at least 2 ranks, got {n}")
    if algorithm == "rh" and n & (n - 1):
        raise ConfigError(
            f"recursive halving needs a power-of-two rank count, got {n}")
    return (n - 1).bit_length()


def expected_phases(algorithm: str, n: int) -> int:
    """Synchronous phases of one all-reduce: ``2(N-1)`` neighbor exchanges
    for the ring, ``2*ceil(log2 N)`` for halving+doubling and the tree."""
    depth = _depth(algorithm, n)
    return 2 * (n - 1) if algorithm == "ring" else 2 * depth


def expected_steps(algorithm: str, n: int) -> int:
    """The MAX number of sends any one rank makes in one all-reduce.  The
    tree's rank 0 feeds one broadcast child per level; every other rank
    sends once up plus to its own children, never more."""
    depth = _depth(algorithm, n)
    return {"ring": 2 * (n - 1), "rh": 2 * depth, "tree": depth}[algorithm]


def messages_per_round(algorithm: str, n: int) -> int:
    """Total messages one all-reduce injects across all ranks."""
    depth = _depth(algorithm, n)
    return {"ring": n * 2 * (n - 1), "rh": n * 2 * depth,
            "tree": 2 * (n - 1)}[algorithm]   # tree: N-1 up, N-1 down


def max_message_bytes(algorithm: str, n: int, vector_bytes: int) -> int:
    """The largest single message of one all-reduce of ``vector_bytes``:
    one chunk for the ring, the first half-window for halving, the whole
    vector for the tree — what transports size their slots by."""
    _depth(algorithm, n)
    return {"ring": vector_bytes // n, "rh": vector_bytes // 2,
            "tree": vector_bytes}[algorithm]


# -- small collectives --------------------------------------------------------

def barrier(rank: int, n: int):
    """Ring token barrier: rank 0 circulates a token around the ring twice.
    After the first sweep rank 0 knows everyone arrived; the second sweep
    releases everyone.  Two sends per rank."""
    nxt, prv = (rank + 1) % n, (rank - 1) % n
    for _sweep in range(2):
        if rank == 0:
            yield ("send", nxt, _TOKEN)
            yield ("recv", prv)
        else:
            yield ("recv", prv)
            yield ("send", nxt, _TOKEN)


def broadcast(rank: int, n: int, data: Optional[bytes] = None,
              root: int = 0):
    """Ring broadcast: the payload is relayed around the ring from
    ``root``, store-and-forward, ``N-1`` hops end to end (at most one send
    per rank).  The script returns the payload on every rank."""
    if (rank - root) % n == 0 and data is None:
        raise ConfigError("broadcast root must supply data")
    return _relay(rank, n, data, root)


def _relay(rank: int, n: int, data: Optional[bytes], root: int):
    pos = (rank - root) % n
    if pos != 0:
        data = yield ("recv", (rank - 1) % n)
    if pos != n - 1:            # the last rank has nobody left to feed
        yield ("send", (rank + 1) % n, data)
    return data


def all_gather(rank: int, n: int, contribution: bytes):
    """Ring all-gather in ``N-1`` steps: each step forwards the piece
    received in the previous step to ``next`` while receiving a new piece
    from ``prev``.  Returns the pieces indexed by originating rank."""
    pieces: List[Optional[bytes]] = [None] * n
    pieces[rank] = cur = contribution
    for step in range(n - 1):
        yield ("send", (rank + 1) % n, cur)
        cur = yield ("recv", (rank - 1) % n)
        pieces[(rank - 1 - step) % n] = cur
    return pieces


def halo_exchange(rank: int, n: int, interior: bytes, halo_bytes: int,
                  periodic: bool = True):
    """1-D domain halo exchange with both ring neighbors.

    Sends the first/last ``halo_bytes`` of ``interior`` to ``prev``/``next``
    and receives the matching ghost regions.  ``periodic=False`` drops the
    exchange across the domain boundary (ranks 0 and N-1 keep a ``None``
    ghost on their outer side).  Returns ``(left_ghost, right_ghost)``.

    Every rank sends its right edge before its left edge; with in-order
    channels this makes the first arrival from ``prev`` the left ghost even
    when N=2 collapses both neighbors onto one peer.
    """
    if halo_bytes <= 0 or len(interior) < 2 * halo_bytes:
        raise ConfigError(
            f"interior of {len(interior)} bytes cannot shed two "
            f"{halo_bytes}-byte halos")
    return _halo(rank, n, interior, halo_bytes,
                 periodic or rank > 0, periodic or rank < n - 1)


def _halo(rank, n, interior, halo_bytes, has_prev, has_next):
    nxt, prv = (rank + 1) % n, (rank - 1) % n
    if has_next:
        yield ("send", nxt, interior[-halo_bytes:])
    if has_prev:
        yield ("send", prv, interior[:halo_bytes])
    left_ghost = right_ghost = None
    if has_prev:
        left_ghost = yield ("recv", prv)
    if has_next:
        right_ghost = yield ("recv", nxt)
    return left_ghost, right_ghost


# -- all-reduce ---------------------------------------------------------------

def all_reduce(algorithm: str, rank: int, n: int, values: List[float],
               op: str = "sum"):
    """One rank's all-reduce of a float64 vector as an op script.

    ``algorithm`` is ``ring``, ``rh`` or ``tree`` (see the schedules
    below); ``op`` is any :data:`REDUCE_OPS` name.  Validates here, not
    inside the generator: the op, the schedule, a power-of-two N for
    ``rh``, and a non-empty vector whose length divides by N.
    """
    combine = resolve_reduce_op(op)
    _depth(algorithm, n)
    if not values or len(values) % n:
        raise ConfigError(
            f"all-reduce vector length {len(values)} must be a positive "
            f"multiple of the {n} ranks")
    schedule = {"ring": _ring_all_reduce, "rh": _rh_all_reduce,
                "tree": _tree_all_reduce}[algorithm]
    return schedule(rank, n, values, combine)


def _ring_all_reduce(rank, n, values, combine):
    """Bandwidth-optimal ring: ``2*(N-1)`` steps of one ``1/N`` chunk.

    A reduce-scatter pass (``N-1`` steps) leaves each rank with one fully
    reduced chunk, then an all-gather pass (``N-1`` steps) circulates the
    reduced chunks.  Per-step cost is directly comparable to a 2-node
    ping-pong of the chunk size.
    """
    chunk_len = len(values) // n
    chunks = [list(values[i * chunk_len:(i + 1) * chunk_len])
              for i in range(n)]
    nxt, prv = (rank + 1) % n, (rank - 1) % n
    # Reduce-scatter: after step s, chunk (rank-s-1)%n holds partial sums
    # of s+2 contributions; after N-1 steps rank r owns the full sum of
    # chunk (r+1)%n.
    for s in range(n - 1):
        send_idx = (rank - s) % n
        recv_idx = (rank - s - 1) % n
        yield ("send", nxt, pack(chunks[send_idx]))
        incoming = unpack((yield ("recv", prv)))
        yield ("compute", 2 * chunk_len)        # fused combine of one chunk
        chunks[recv_idx] = [combine(a, b)
                            for a, b in zip(chunks[recv_idx], incoming)]
    # All-gather of the reduced chunks, starting from the one this rank owns.
    for s in range(n - 1):
        send_idx = (rank + 1 - s) % n
        recv_idx = (rank - s) % n
        yield ("send", nxt, pack(chunks[send_idx]))
        chunks[recv_idx] = unpack((yield ("recv", prv)))
    return [v for chunk in chunks for v in chunk]


def _rh_all_reduce(rank, n, values, combine):
    """Recursive-halving reduce-scatter + recursive-doubling allgather.

    ``2*log2(N)`` phases of pairwise exchanges with partner ``rank ^
    dist``; message size halves during the scatter and doubles back
    during the gather, so total bytes match the ring while the phase
    count drops to logarithmic.  Needs all-pairs connectivity.
    """
    out = list(values)
    lo, hi = 0, len(out)                # this rank's active window
    dist = n // 2
    while dist >= 1:                    # reduce-scatter, halving
        partner = rank ^ dist
        mid = (lo + hi) // 2
        if rank & dist:                 # I keep the upper half
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        else:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        yield ("send", partner, pack(out[send_lo:send_hi]))
        incoming = unpack((yield ("recv", partner)))
        yield ("compute", 2 * len(incoming))
        for i, v in enumerate(incoming):
            out[keep_lo + i] = combine(out[keep_lo + i], v)
        lo, hi = keep_lo, keep_hi
        dist //= 2
    dist = 1
    while dist < n:                     # allgather, doubling (mirror)
        partner = rank ^ dist
        yield ("send", partner, pack(out[lo:hi]))
        incoming = unpack((yield ("recv", partner)))
        if rank & dist:                 # partner held the half below mine
            out[2 * lo - hi:lo] = incoming
            lo = 2 * lo - hi
        else:
            out[hi:2 * hi - lo] = incoming
            hi = 2 * hi - lo
        dist *= 2
    return out


def _tree_all_reduce(rank, n, values, combine):
    """Binomial-tree reduce to rank 0 plus binomial broadcast back.

    ``2*ceil(log2 N)`` phases of full-vector messages; at most
    ``ceil(log2 N)`` sends per rank.  Latency-optimal for small vectors.
    Needs all-pairs connectivity; any rank count works.
    """
    out = list(values)
    mask = 1
    while mask < n:                     # reduce toward rank 0
        if rank & mask:
            yield ("send", rank ^ mask, pack(out))
            break                       # my subtree went up; wait for bcast
        src = rank | mask
        if src < n:
            incoming = unpack((yield ("recv", src)))
            yield ("compute", 2 * len(incoming))
            for i, v in enumerate(incoming):
                out[i] = combine(out[i], v)
        mask <<= 1
    # Broadcast back down: receive from the parent (the lowest set bit),
    # then feed children below that bit, widest subtree first.
    if rank:
        parent_bit = rank & -rank
        out = unpack((yield ("recv", rank ^ parent_bit)))
        m = parent_bit >> 1
    else:
        m = 1 << ((n - 1).bit_length() - 1)
    while m >= 1:
        if (rank | m) < n:
            yield ("send", rank | m, pack(out))
        m >>= 1
    return out
