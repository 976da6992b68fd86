"""Unit tests for the interval algebra in repro.obs.query."""

import pytest

from repro.obs import clip, coverage, merge, overlap, span_intervals, subtract
from repro.obs.cli import run_traced_pingpong


def test_merge_unions_and_sorts():
    assert merge([(3.0, 4.0), (1.0, 2.0), (1.5, 2.5)]) == [(1.0, 2.5), (3.0, 4.0)]


def test_merge_drops_zero_length_and_joins_touching():
    assert merge([(1.0, 1.0), (1.0, 2.0), (2.0, 3.0)]) == [(1.0, 3.0)]


def test_clip_restricts_to_window():
    ivs = [(0.0, 2.0), (3.0, 5.0), (6.0, 7.0)]
    assert clip(ivs, (1.0, 6.0)) == [(1.0, 2.0), (3.0, 5.0)]


def test_subtract_removes_covered_time():
    windows = [(0.0, 10.0)]
    cover = [(2.0, 3.0), (5.0, 7.0)]
    assert subtract(windows, cover) == [(0.0, 2.0), (3.0, 5.0), (7.0, 10.0)]
    # Removing the remainder too leaves nothing.
    assert subtract(subtract(windows, cover), subtract(windows, cover)) == []


def test_subtract_cover_overhanging_both_ends():
    assert subtract([(1.0, 2.0)], [(0.0, 3.0)]) == []
    assert subtract([(1.0, 4.0)], [(0.0, 2.0), (3.0, 5.0)]) == [(2.0, 3.0)]


def test_coverage_totals_disjoint_intervals():
    assert coverage([(0.0, 1.0), (2.0, 4.5)]) == pytest.approx(3.5)
    assert coverage([]) == 0.0


def test_overlap_is_merged_intersection():
    ivs = [(0.0, 2.0), (2.5, 3.5)]
    windows = [(1.0, 3.0), (3.25, 5.0)]
    assert overlap(ivs, windows) == [(1.0, 2.0), (2.5, 3.0), (3.25, 3.5)]
    # Touching windows merge back into one piece.
    assert overlap(ivs, [(1.0, 3.0), (3.0, 5.0)]) == [(1.0, 2.0), (2.5, 3.5)]


def test_partition_identity_on_a_real_trace():
    """clip + subtract must partition a window exactly: covered + remainder
    == window, on real span data with thousands of intervals."""
    tracer, _ = run_traced_pingpong("extoll", "dev2dev-direct", 64, 4, 1)
    polling = merge(span_intervals(tracer, category="phase", name="polling"))
    pcie = merge(span_intervals(tracer, category="pcie"))
    inside = overlap(pcie, polling)
    rest = subtract(polling, inside)
    assert coverage(inside) + coverage(rest) == pytest.approx(
        coverage(polling), rel=1e-12)


def test_span_intervals_filters():
    tracer, _ = run_traced_pingpong("extoll", "dev2dev-direct", 64, 3, 1)
    all_phase = span_intervals(tracer, category="phase")
    wrgen = span_intervals(tracer, category="phase", name="wr-generation")
    ping_only = span_intervals(tracer, category="phase", track="ping")
    assert len(wrgen) == 3
    assert len(all_phase) >= len(wrgen)
    assert all_phase == ping_only  # pingpong phases live on the ping track
    assert wrgen == sorted(wrgen)


# -- boundary semantics shared with the telemetry sampler ---------------------------

def test_clip_at_exact_window_edges_drops_degenerate_slivers():
    """An interval that only TOUCHES a window edge contributes zero time
    and must vanish, not survive as a (x, x) sliver."""
    assert clip([(1.0, 2.0)], (2.0, 3.0)) == []
    assert clip([(2.0, 3.0)], (1.0, 2.0)) == []
    assert clip([(1.0, 2.0)], (1.0, 2.0)) == [(1.0, 2.0)]
    assert clip([(1.0, 2.0)], (2.0, 2.0)) == []


def test_adjacent_windows_partition_coverage_exactly():
    """Clipping to consecutive sampler windows never double-counts or
    loses the time of spans crossing (or ending exactly on) window edges —
    the off-by-one this suite pins down."""
    spans = [(0.5, 1.5), (2.0, 3.0), (3.0, 4.0), (4.25, 4.75), (5.0, 7.0)]
    edges = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    per_window = [coverage(clip(spans, (w0, w1)))
                  for w0, w1 in zip(edges, edges[1:])]
    assert sum(per_window) == pytest.approx(coverage(merge(spans)))
    assert per_window == pytest.approx([0.5, 0.5, 1.0, 1.0, 0.5, 1.0, 1.0])


def test_span_ending_on_a_window_edge_belongs_left_of_it():
    """Interval algebra uses half-open [begin, end): a span ending at the
    edge is entirely in the earlier window, mirroring the sampler's
    (w0, w1] counter convention (one owner per boundary event)."""
    spans = [(1.0, 2.0)]
    assert coverage(clip(spans, (0.0, 2.0))) == pytest.approx(1.0)
    assert coverage(clip(spans, (2.0, 4.0))) == 0.0


# -- zero-width spans and identical-timestamp ordering ------------------------------

def test_merge_drops_zero_width_everywhere():
    """Zero-width [x, x) intervals contribute nothing — standalone, glued
    to a real interval's edge, or inside one."""
    assert merge([(1.0, 1.0)]) == []
    assert merge([(1.0, 1.0), (2.0, 2.0)]) == []
    assert merge([(1.0, 2.0), (1.0, 1.0), (2.0, 2.0), (1.5, 1.5)]) \
        == [(1.0, 2.0)]
    assert coverage(merge([(1.0, 1.0), (1.0, 2.0)])) == pytest.approx(1.0)


def test_merge_identical_timestamps_is_order_independent():
    """Intervals sharing begin (or begin == another's end) must merge to
    the same disjoint list no matter the input order."""
    import itertools
    intervals = [(1.0, 3.0), (1.0, 2.0), (1.0, 1.0), (3.0, 4.0), (0.5, 1.0)]
    expect = merge(intervals)
    assert expect == [(0.5, 4.0)]
    for perm in itertools.permutations(intervals):
        assert merge(perm) == expect


def test_merge_same_begin_takes_longest_end():
    assert merge([(1.0, 1.5), (1.0, 4.0), (1.0, 2.0)]) == [(1.0, 4.0)]
    assert merge([(1.0, 4.0), (1.0, 1.0)]) == [(1.0, 4.0)]


def test_subtract_with_zero_width_windows_and_cover():
    """A zero-width window yields nothing; a zero-width cover removes
    nothing (it would otherwise split a window into a degenerate pair)."""
    assert subtract([(1.0, 1.0)], [(0.0, 5.0)]) == []
    assert subtract([(1.0, 1.0)], []) == []
    # Zero-width cover entries are not produced by merge(), but subtract
    # must still never emit degenerate slivers around them.
    out = subtract([(0.0, 2.0)], [(1.0, 1.0)])
    assert coverage(out) == pytest.approx(2.0)
    assert all(e > b for b, e in out)


def test_overlap_zero_width_window_contributes_nothing():
    assert overlap([(0.0, 10.0)], [(5.0, 5.0)]) == []
    assert overlap([(3.0, 3.0)], [(0.0, 10.0)]) == []


def test_span_intervals_sorts_identical_begin_deterministically():
    """Spans opening at the same instant (common: a zero-cost phase next
    to a real one) sort by (begin, end) — stable across runs, zero-width
    first."""
    class _T:
        pass
    class _S:
        def __init__(self, b, e):
            self.category, self.name, self.track = "c", "n", "t"
            self.begin, self.end = b, e
    t = _T()
    t.spans = [_S(2.0, 3.0), _S(2.0, 2.0), _S(1.0, 1.0), _S(2.0, 2.5)]
    got = span_intervals(t)
    assert got == [(1.0, 1.0), (2.0, 2.0), (2.0, 2.5), (2.0, 3.0)]
    # and the pipeline end-state ignores the zero-width ones entirely
    assert merge(got) == [(2.0, 3.0)]
