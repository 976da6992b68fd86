"""Unit + property tests for the L2 cache model."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigError
from repro.memory import Cache, CacheConfig


def small_cache(ways=2, sets=4, line=32):
    return Cache(CacheConfig(size_bytes=ways * sets * line, line_bytes=line, ways=ways))


def test_first_read_misses_second_hits():
    c = small_cache()
    hits, misses = c.read(0x40, 8)
    assert (hits, misses) == (0, 1)
    hits, misses = c.read(0x40, 8)
    assert (hits, misses) == (1, 0)


def test_write_allocates_then_read_hits():
    """The pollOnGPU pattern: NIC-visible flag written, then polled — resident."""
    c = small_cache()
    c.write(0x100, 8)
    hits, misses = c.read(0x100, 8)
    assert (hits, misses) == (1, 0)


def test_invalidate_forces_remiss():
    c = small_cache()
    c.read(0x40, 8)
    assert c.contains(0x40)
    dropped = c.invalidate(0x40, 8)
    assert dropped == 1
    hits, misses = c.read(0x40, 8)
    assert (hits, misses) == (0, 1)


def test_multi_sector_access_counts_each_sector():
    c = small_cache(line=32)
    hits, misses = c.read(0x0, 128)  # 4 sectors
    assert (hits, misses) == (0, 4)
    assert c.stats.read_requests == 4


def test_unaligned_access_spanning_two_sectors():
    c = small_cache(line=32)
    hits, misses = c.read(30, 4)  # crosses the 32B boundary
    assert misses == 2


def test_lru_eviction_within_set():
    c = small_cache(ways=2, sets=1, line=32)
    c.read(0 * 32, 1)
    c.read(1 * 32, 1)
    c.read(2 * 32, 1)          # evicts line 0 (LRU)
    assert not c.contains(0)
    assert c.contains(32)
    assert c.contains(64)


def test_lru_touch_refreshes():
    c = small_cache(ways=2, sets=1, line=32)
    c.read(0, 1)
    c.read(32, 1)
    c.read(0, 1)               # refresh line 0
    c.read(64, 1)              # should evict line 32, not line 0
    assert c.contains(0)
    assert not c.contains(32)


def test_stats_accumulate_and_reset():
    c = small_cache()
    c.read(0, 1)
    c.read(0, 1)
    c.write(64, 1)
    assert c.stats.read_requests == 2
    assert c.stats.read_hits == 1
    assert c.stats.write_requests == 1
    c.stats.reset()
    assert c.stats.read_requests == 0


def test_default_config_is_kepler_sized():
    c = Cache()
    assert c.config.size_bytes == 1536 * 1024
    assert c.config.line_bytes == 32


def test_bad_geometry_rejected():
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=1000, line_bytes=32, ways=16)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=0)
    with pytest.raises(ConfigError):
        CacheConfig(size_bytes=48 * 1024, line_bytes=48, ways=16)


@given(st.lists(st.integers(min_value=0, max_value=2**20), min_size=1, max_size=200))
def test_property_hits_plus_misses_equals_requests(addrs):
    c = Cache(CacheConfig(size_bytes=16 * 1024, line_bytes=32, ways=4))
    for a in addrs:
        c.read(a, 4)
    s = c.stats
    assert s.read_hits + s.read_misses == s.read_requests
    assert c.resident_sectors <= c.config.num_sets * c.config.ways


@given(st.lists(st.integers(min_value=0, max_value=2**16), min_size=1, max_size=100))
def test_property_immediate_rereference_always_hits(addrs):
    c = Cache(CacheConfig(size_bytes=16 * 1024, line_bytes=32, ways=4))
    for a in addrs:
        c.read(a, 1)
        hits, misses = c.read(a, 1)
        assert (hits, misses) == (1, 0)


class ReferenceCache:
    """The per-sector L2 model: every sector located and touched one by
    one.  The fast paths of :class:`Cache` must match it exactly."""

    def __init__(self, config):
        self.line, self.ways = config.line_bytes, config.ways
        self.num_sets = config.num_sets
        self.sets = [[] for _ in range(self.num_sets)]   # LRU first

    def _lines(self, addr, length):
        first = addr // self.line
        return range(first, (addr + max(length, 1) - 1) // self.line + 1)

    def access(self, addr, length):
        hits = misses = 0
        for line in self._lines(addr, length):
            s, tag = self.sets[line % self.num_sets], line // self.num_sets
            if tag in s:
                s.remove(tag)
                hits += 1
            else:
                misses += 1
                if len(s) == self.ways:
                    del s[0]
            s.append(tag)
        return hits, misses

    def invalidate(self, addr, length):
        dropped = 0
        for line in self._lines(addr, length):
            s, tag = self.sets[line % self.num_sets], line // self.num_sets
            if tag in s:
                s.remove(tag)
                dropped += 1
        return dropped


def resident(cache):
    """Each set's tags in LRU order."""
    return [list(s) if s else [] for s in cache._sets]


GEOMETRY = st.tuples(st.sampled_from([8, 32, 64]),      # line bytes
                     st.integers(min_value=1, max_value=4),   # ways
                     st.integers(min_value=1, max_value=12))  # sets
OPS = st.lists(st.tuples(st.sampled_from(["read", "write", "invalidate"]),
                         st.integers(min_value=0, max_value=4096),
                         st.integers(min_value=0, max_value=1500)),
               min_size=1, max_size=60)


@given(GEOMETRY, OPS)
def test_property_matches_per_sector_reference(geometry, ops):
    """Random geometry, fills and unaligned ranges, many of them longer
    than the set count: same results, same resident tags in the same LRU
    order."""
    line, ways, sets = geometry
    config = CacheConfig(size_bytes=line * ways * sets, line_bytes=line,
                         ways=ways)
    cache, ref = Cache(config), ReferenceCache(config)
    for op, addr, length in ops:
        if op == "invalidate":
            assert cache.invalidate(addr, length) == ref.invalidate(addr, length)
        else:
            assert getattr(cache, op)(addr, length) == ref.access(addr, length)
        assert resident(cache) == ref.sets
        assert cache.resident_sectors == sum(map(len, ref.sets))
    for addr in range(0, 4096 + 1500, line):
        assert cache.contains(addr) == (
            addr // line // ref.num_sets
            in ref.sets[addr // line % ref.num_sets])


def test_sets_are_allocated_on_first_fill():
    c = small_cache(ways=2, sets=4)
    assert c.resident_sectors == 0 and not c.contains(0)
    assert c.invalidate(0, 4096) == 0
    c.write(32, 1)
    assert [s is not None for s in c._sets] == [False, True, False, False]


def test_invalidate_range_that_wraps_past_the_last_set():
    c = small_cache(ways=2, sets=4, line=32)
    c.write(4 * 32, 1)                 # line 4: set 0, tag 1
    # Lines 3 and 4 sit in sets 3 and 0: the range wraps, and only its
    # wrapped part holds a tag.
    assert c.invalidate(3 * 32, 64) == 1
    assert not c.contains(4 * 32)
