"""Set-associative cache model (the GPU's L2).

The model tracks *which lines are resident* and produces hit/miss outcomes
plus statistics; it does not store data (data always lives in the backing
memory — the cache only changes timing and counters, which is exactly what
the paper's performance-counter analysis needs).

Granularity follows NVIDIA's L2: 32-byte sectors within 128-byte lines; we
model at sector granularity, which is what the ``l2_read_requests`` /
``l2_read_hits`` counters in Tables I and II count.

Eviction is LRU within a set.  Writes are modeled write-back/write-allocate
for device-memory traffic (a store brings the sector in), which reproduces
the effect that polling a just-written flag in device memory hits in L2.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional

from ..errors import ConfigError


@dataclass
class CacheStats:
    read_requests: int = 0
    read_hits: int = 0
    read_misses: int = 0
    write_requests: int = 0
    write_hits: int = 0
    write_misses: int = 0

    def reset(self) -> None:
        for name in vars(self):
            setattr(self, name, 0)

    def snapshot(self) -> "CacheStats":
        return CacheStats(**vars(self))


@dataclass(frozen=True)
class CacheConfig:
    size_bytes: int = 1536 * 1024   # Kepler GK110: 1.5 MiB L2
    line_bytes: int = 32            # sector granularity
    ways: int = 16

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ConfigError("cache geometry must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ConfigError(
                f"cache size {self.size_bytes} not divisible by "
                f"line*ways={self.line_bytes * self.ways}"
            )
        if self.line_bytes & (self.line_bytes - 1):
            raise ConfigError("line size must be a power of two")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


class Cache:
    """LRU set-associative presence cache."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        self._line = self.config.line_bytes
        self._num_sets = self.config.num_sets
        self._ways = self.config.ways
        # Per set, None until its first sector lands, then an OrderedDict
        # tag -> True whose insertion order is the LRU order.  Line ``n``
        # lives in set ``n % num_sets`` under tag ``n // num_sets``.
        self._sets: List[Optional[OrderedDict]] = [None] * self._num_sets

    def _lines(self, addr: int, length: int) -> tuple[int, int]:
        """First and last line an access of ``length`` bytes touches (a
        zero-length access touches the line at ``addr``)."""
        line = self._line
        return addr // line, (addr + (length if length > 1 else 1) - 1) // line

    def _access(self, addr: int, length: int) -> tuple[int, int]:
        """Touch every sector of the access, filling misses and evicting
        the LRU tag of a full set; returns (hits, misses)."""
        first, last = self._lines(addr, length)
        num_sets, ways, sets = self._num_sets, self._ways, self._sets
        hits = 0
        for line in range(first, last + 1):
            set_idx = line % num_sets
            tag = line // num_sets
            s = sets[set_idx]
            if s is None:
                s = sets[set_idx] = OrderedDict()
            if tag in s:
                s.move_to_end(tag)
                hits += 1
            else:
                s[tag] = True
                if len(s) > ways:
                    s.popitem(last=False)  # evict LRU
        return hits, last - first + 1 - hits

    # -- access API ---------------------------------------------------------------
    def read(self, addr: int, length: int) -> tuple[int, int]:
        """Access ``length`` bytes at ``addr``.  Returns (hits, misses) in
        sector units and updates stats."""
        hits, misses = self._access(addr, length)
        stats = self.stats
        stats.read_requests += hits + misses
        stats.read_hits += hits
        stats.read_misses += misses
        return hits, misses

    def write(self, addr: int, length: int) -> tuple[int, int]:
        """Write-allocate access; returns (hits, misses) in sector units."""
        hits, misses = self._access(addr, length)
        stats = self.stats
        stats.write_requests += hits + misses
        stats.write_hits += hits
        stats.write_misses += misses
        return hits, misses

    def invalidate(self, addr: int, length: int) -> int:
        """Drop any resident sectors overlapping the range (used when another
        PCIe agent DMA-writes device memory); returns sectors dropped."""
        first, last = self._lines(addr, length)
        num_sets, sets = self._num_sets, self._sets
        # Most DMA writes land where nothing is resident: the range's sets
        # are one slice (two if it wraps past the last set), tested in C.
        lo = first % num_sets
        hi = lo + last - first + 1
        if not any(sets[lo:hi]) and (
                hi <= num_sets or not any(sets[:hi - num_sets])):
            return 0
        dropped = 0
        for line in range(first, last + 1):
            s = sets[line % num_sets]
            if s:
                tag = line // num_sets
                if tag in s:
                    del s[tag]
                    dropped += 1
        return dropped

    def contains(self, addr: int) -> bool:
        line = addr // self._line
        s = self._sets[line % self._num_sets]
        return s is not None and line // self._num_sets in s

    @property
    def resident_sectors(self) -> int:
        return sum(len(s) for s in self._sets if s)
