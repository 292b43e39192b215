"""Two-level cache hierarchy shared by the application and lifeguard cores.

Table 2 of the paper: private 16 KB 2-way L1 instruction and data caches per
core, a shared 512 KB 8-way L2 with 10-cycle latency, and 200-cycle main
memory.  The hierarchy returns access latencies in cycles; the LBA timing
model adds them to the per-core cycle counts.

Hot callers bind a :meth:`MemoryHierarchy.port` once per core and access
kind and call it per access; :meth:`MemoryHierarchy.access` goes through
the same ports.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.cache.cache import Cache
from repro.core.config import MemoryHierarchyConfig


class AccessType(enum.Enum):
    """Kind of memory access issued by a core."""

    INSTRUCTION_FETCH = "ifetch"
    DATA_READ = "read"
    DATA_WRITE = "write"


@dataclass
class CoreCaches:
    """The private L1 caches of one core."""

    l1i: Cache
    l1d: Cache


class MemoryHierarchy:
    """Private L1s per core plus a shared L2 and main memory."""

    def __init__(self, config: MemoryHierarchyConfig | None = None, num_cores: int = 2) -> None:
        self.config = config or MemoryHierarchyConfig()
        self.num_cores = num_cores
        self._cores: Dict[int, CoreCaches] = {
            core: CoreCaches(
                l1i=Cache(self.config.l1i, name=f"core{core}.l1i"),
                l1d=Cache(self.config.l1d, name=f"core{core}.l1d"),
            )
            for core in range(num_cores)
        }
        self.l2 = Cache(self.config.l2, name="shared.l2")
        self.memory_accesses = 0
        self._ports: Dict[Tuple[int, AccessType], Callable[[int, int], int]] = {}

    def core(self, core_id: int) -> CoreCaches:
        """The private caches of ``core_id``."""
        return self._cores[core_id]

    def access(self, core_id: int, address: int, access_type: AccessType, size: int = 4) -> int:
        """Perform an access and return its latency in cycles."""
        return self.port(core_id, access_type)(address, size)

    def port(self, core_id: int, access_type: AccessType) -> Callable[[int, int], int]:
        """The ``access(address, size) -> latency`` function of one core and kind.

        The port binds the core's L1 for ``access_type``, the latencies and
        the line geometry once.  An access that stays inside the L1's
        last-accessed line is an L1 hit with no LRU change, so the port
        counts it inline; any other access takes the full L1 path, and on
        an L1 miss the shared L2 is probed at ``address``.  Ports are
        cached: every caller of one core and kind shares one function.
        """
        key = (core_id, access_type)
        port = self._ports.get(key)
        if port is not None:
            return port
        caches = self._cores[core_id]
        is_write = access_type is AccessType.DATA_WRITE
        l1 = caches.l1i if access_type is AccessType.INSTRUCTION_FETCH else caches.l1d
        l1_stats = l1.stats
        l1_access_range = l1.access_range
        l2_access = self.l2.access
        l1_latency = l1.config.latency_cycles
        l2_latency = l1_latency + self.config.l2.latency_cycles
        memory_latency = l2_latency + self.config.memory_latency_cycles

        def access(address: int, size: int = 4) -> int:
            # [address, address + size) is non-empty and inside the MRU line
            if l1._mru_base <= address < address + size <= l1._mru_end:
                l1_stats.accesses += 1
                l1_stats.hits += 1
                if is_write:
                    l1._mru_lines[l1._mru_tag] = True
                return l1_latency
            if not l1_access_range(address, size, is_write):
                return l1_latency
            if l2_access(address, is_write):
                return l2_latency
            self.memory_accesses += 1
            return memory_latency

        self._ports[key] = access
        return access

    def total_l1_miss_rate(self, core_id: int) -> float:
        """Combined L1 data+instruction miss rate of ``core_id``."""
        caches = self._cores[core_id]
        accesses = caches.l1i.stats.accesses + caches.l1d.stats.accesses
        misses = caches.l1i.stats.misses + caches.l1d.stats.misses
        return misses / accesses if accesses else 0.0
