"""Property tests for doorbell coalescing (pure queueing logic).

The batcher's correctness contract, driven by hypothesis over random
submission/timeout interleavings:

* every submitted descriptor appears in EXACTLY one flush,
* flushes preserve per-connection FIFO order,
* no flush carries more than ``max_descriptors``,
* the doorbell count never exceeds
  ``sum_c ceil(N_c / max_descriptors) + timeout_flushes`` — the bound the
  ``mmio-coalesced`` acceptance invariant checks on the live engine.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Aggregator, DoorbellBatcher, FlushPolicy
from repro.errors import ConfigError

# One random program step: submit to a connection, advance the clock, or
# scan for timeouts.  Items are sequence numbers so identity is unambiguous.
_step = st.one_of(
    st.tuples(st.just("submit"), st.integers(0, 2)),
    st.tuples(st.just("tick"), st.floats(0.1e-6, 5e-6, allow_nan=False)),
    st.tuples(st.just("poll"), st.just(0)),
)


def _run_program(policy, steps):
    """Execute a random program; returns (flushes, per-conn submissions)."""
    batcher = DoorbellBatcher(policy)
    flushes = []
    submitted = {c: [] for c in range(3)}
    now, seq = 0.0, 0
    for op, arg in steps:
        if op == "submit":
            submitted[arg].append(seq)
            flush = batcher.submit(arg, seq, nbytes=64, now=now)
            if flush is not None:
                flushes.append(flush)
            seq += 1
        elif op == "tick":
            now += arg
        else:
            flushes.extend(batcher.poll_timeouts(now))
    flushes.extend(batcher.drain())
    assert batcher.pending() == 0
    return batcher, flushes, submitted


@given(batch=st.integers(1, 5),
       timeout=st.one_of(st.none(), st.floats(0.5e-6, 3e-6, allow_nan=False)),
       steps=st.lists(_step, max_size=60))
@settings(max_examples=200, deadline=None)
def test_batcher_contract(batch, timeout, steps):
    policy = FlushPolicy(max_descriptors=batch, timeout=timeout)
    batcher, flushes, submitted = _run_program(policy, steps)

    # Exactly-once: the union of all flushed items is the submitted set.
    flushed = [item for f in flushes for item in f.items]
    assert sorted(flushed) == sorted(sum(submitted.values(), []))

    # Per-connection FIFO: concatenating a connection's flushes in emission
    # order reproduces its submission order.
    for conn, seqs in submitted.items():
        in_flush_order = [item for f in flushes if f.conn_id == conn
                          for item in f.items]
        assert in_flush_order == seqs

    # No flush exceeds the batch factor, and none is empty.
    assert all(1 <= len(f) <= batch for f in flushes)

    # The doorbell bound: count-triggered flushes carry exactly ``batch``
    # descriptors, so only timeouts can add partial batches mid-stream.
    bound = sum(math.ceil(len(seqs) / batch) for seqs in submitted.values())
    assert batcher.doorbells == len(flushes)
    assert batcher.doorbells <= bound + batcher.timeout_flushes
    assert batcher.descriptors == len(flushed)


@given(steps=st.lists(_step, max_size=60))
@settings(max_examples=50, deadline=None)
def test_batch_size_one_rings_per_descriptor(steps):
    """The degenerate policy is exactly the classic API: every submission
    flushes immediately, one doorbell per descriptor."""
    batcher, flushes, submitted = _run_program(
        FlushPolicy(max_descriptors=1), steps)
    n = sum(len(s) for s in submitted.values())
    assert batcher.doorbells == n
    assert all(len(f) == 1 and f.reason == "count" for f in flushes)


def test_timeout_flush_releases_stale_lane():
    batcher = DoorbellBatcher(FlushPolicy(max_descriptors=8, timeout=1e-6))
    assert batcher.submit(0, "a", now=0.0) is None
    assert batcher.poll_timeouts(0.5e-6) == []          # not stale yet
    (flush,) = batcher.poll_timeouts(2e-6)
    assert flush.items == ("a",) and flush.reason == "timeout"
    assert batcher.timeout_flushes == 1
    assert batcher.pending() == 0


def test_byte_trigger_flushes_before_count():
    batcher = DoorbellBatcher(FlushPolicy(max_descriptors=8, max_bytes=128))
    assert batcher.submit(0, "x", nbytes=64) is None
    flush = batcher.submit(0, "y", nbytes=64)
    assert flush is not None and flush.reason == "byte"
    assert len(flush) == 2


def test_drain_single_connection_leaves_others_pending():
    batcher = DoorbellBatcher(FlushPolicy(max_descriptors=8))
    batcher.submit(0, "a")
    batcher.submit(1, "b")
    (flush,) = batcher.drain(0)
    assert flush.conn_id == 0 and flush.reason == "drain"
    assert batcher.pending(0) == 0
    assert batcher.pending(1) == 1


@pytest.mark.parametrize("kwargs", [
    {"max_descriptors": 0},
    {"max_bytes": 0},
    {"timeout": 0.0},
])
def test_policy_validation(kwargs):
    with pytest.raises(ConfigError):
        FlushPolicy(**kwargs)


# -- aggregation --------------------------------------------------------------

def test_aggregator_merges_runs_of_four():
    """64 B messages against a 256 B cap merge four to a put — the factor
    behind the engine's descriptor-count reduction."""
    agg = Aggregator(256)
    done = [agg.add(0, 64) for _ in range(8)]
    closed = [a for a in done if a is not None]
    assert [(a.count, a.bytes) for a in closed] == [(4, 256), (4, 256)]
    assert agg.drain(0) == []


def test_aggregator_oversized_message_passes_through():
    agg = Aggregator(256)
    assert agg.add(0, 64) is None
    big = agg.add(0, 512)          # cannot join the open 64 B run
    assert (big.count, big.bytes) == (1, 64)
    (tail,) = agg.drain(0)
    assert (tail.count, tail.bytes) == (1, 512)


@given(sizes=st.lists(st.integers(1, 300), max_size=40))
@settings(max_examples=100, deadline=None)
def test_aggregator_conserves_messages_and_bytes(sizes):
    agg = Aggregator(256)
    closed = [a for a in (agg.add(0, n) for n in sizes) if a is not None]
    closed += agg.drain(0)
    assert sum(a.count for a in closed) == len(sizes)
    assert sum(a.bytes for a in closed) == sum(sizes)
