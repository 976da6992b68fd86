"""Property tests for the seeded arrival processes.

The contract the open-loop generator leans on: a process is a pure
function of (kind, rate, seed, knobs) — same parameters, same gap stream,
forever — and both kinds converge to the configured mean rate.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

import pytest

from repro.errors import BenchmarkError
from repro.workloads import (
    ARRIVALS,
    BurstyArrivals,
    MAX_BURST,
    PoissonArrivals,
    arrival_process,
)

RATES = st.floats(min_value=1e2, max_value=1e7, allow_nan=False,
                  allow_infinity=False)
SEEDS = st.integers(min_value=0, max_value=2**31)
KINDS = st.sampled_from(sorted(ARRIVALS))


def gaps(proc, n):
    """The next ``n`` gaps of ``proc`` (advances the stream)."""
    return [proc.next_gap() for _ in range(n)]


@given(kind=KINDS, rate=RATES, seed=SEEDS)
@settings(max_examples=60, deadline=None)
def test_same_seed_replays_identically(kind, rate, seed):
    a = arrival_process(kind, rate, seed)
    b = arrival_process(kind, rate, seed)
    assert gaps(a, 100) == gaps(b, 100)


@given(kind=KINDS, rate=RATES, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_reset_rewinds_to_the_first_gap(kind, rate, seed):
    proc = arrival_process(kind, rate, seed)
    first = gaps(proc, 50)
    gaps(proc, 7)            # advance some more
    proc.reset()
    assert gaps(proc, 50) == first


@given(kind=KINDS, rate=RATES, seed=SEEDS)
@settings(max_examples=40, deadline=None)
def test_gaps_are_finite_and_non_negative(kind, rate, seed):
    proc = arrival_process(kind, rate, seed)
    for gap in gaps(proc, 200):
        assert gap >= 0.0
        assert gap < float("inf")


@given(rate=RATES, seed=SEEDS)
@settings(max_examples=30, deadline=None)
def test_different_kinds_draw_from_independent_streams(rate, seed):
    """Kind participates in the RNG seed, so poisson and bursty never
    alias even with identical (rate, seed)."""
    poisson = arrival_process("poisson", rate, seed)
    bursty = arrival_process("bursty", rate, seed)
    assert gaps(poisson, 20) != gaps(bursty, 20)


@pytest.mark.parametrize("kind,tolerance", [("poisson", 0.05),
                                            ("bursty", 0.25)])
@pytest.mark.parametrize("rate", [1e3, 5e4])
def test_mean_interarrival_converges_to_rate(kind, tolerance, rate):
    """Long-run mean gap ~ 1/rate.  Bursty gets a wider band: Pareto(1.5)
    burst lengths have infinite variance, so convergence is slow by
    design (the clumping is the point)."""
    proc = arrival_process(kind, rate, seed=3)
    n = 20000
    mean = sum(gaps(proc, n)) / n
    assert mean == pytest.approx(1.0 / rate, rel=tolerance)


def test_bursty_clumps_more_than_poisson():
    """Same mean, fatter tail: the bursty process's max/mean gap ratio
    must exceed Poisson's (idle OFF periods vs memoryless smoothness)."""
    rate, n = 1e4, 5000
    p = gaps(PoissonArrivals(rate, seed=5), n)
    b = gaps(BurstyArrivals(rate, seed=5), n)
    assert max(b) / (sum(b) / n) > max(p) / (sum(p) / n)


def test_burst_lengths_are_capped():
    proc = BurstyArrivals(1e4, seed=0, alpha=1.01)   # near-infinite tail
    for _ in range(2000):
        proc.next_gap()
        assert proc._burst_remaining <= MAX_BURST - 1


def test_validation_errors():
    with pytest.raises(BenchmarkError, match="unknown arrival process"):
        arrival_process("adversarial", 1e4)
    with pytest.raises(BenchmarkError, match="rate must be > 0"):
        PoissonArrivals(0.0)
    with pytest.raises(BenchmarkError, match="burst_factor"):
        BurstyArrivals(1e4, burst_factor=1.0)
    with pytest.raises(BenchmarkError, match="alpha"):
        BurstyArrivals(1e4, alpha=1.0)
