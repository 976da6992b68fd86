"""Memory subsystem: backing stores, address maps, allocators, caches,
MMIO windows, and page-granular translation."""

from .address import (
    GPU_DRAM_BASE,
    HOST_DRAM_BASE,
    MMIO_BASE,
    AddressMap,
    AddressRange,
    MemorySpace,
)
from .backing import ByteStore, DmaPayload
from .cache import Cache, CacheConfig, CacheStats
from .mmio import MmioWindow
from .region import Allocator, Memory
from .translation import Mapping, TranslationTable

__all__ = [
    "AddressMap",
    "AddressRange",
    "MemorySpace",
    "HOST_DRAM_BASE",
    "GPU_DRAM_BASE",
    "MMIO_BASE",
    "ByteStore",
    "DmaPayload",
    "Cache",
    "CacheConfig",
    "CacheStats",
    "MmioWindow",
    "Allocator",
    "Memory",
    "Mapping",
    "TranslationTable",
]
