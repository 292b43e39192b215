"""A set-associative cache model with LRU replacement.

The model is functional-with-latency: it tracks which lines are resident
(tags + LRU order per set) and reports hit/miss so the hierarchy can charge
latencies, but does not store data (the functional state of the program
lives in :class:`repro.memory.address_space.AddressSpace`).

A cache remembers the line of its last access.  That line is always the
most recently used line of its set, so a repeat access to it is a hit that
changes no LRU order; most accesses are such repeats, and they skip the
index/tag arithmetic and the set lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import CacheConfig


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_rate(self) -> float:
        """Miss rate in ``[0, 1]`` (0 when the cache was never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """A single level of set-associative, write-back, write-allocate cache."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self.stats = CacheStats()
        # geometry, read on every access
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        # per-set ordered dict: tag -> dirty flag; ordering is LRU (oldest first)
        self._sets: Dict[int, OrderedDict[int, bool]] = {}
        self._forget_mru()

    def _forget_mru(self) -> None:
        # The last-accessed line as the byte range [_mru_base, _mru_end),
        # its set and its tag; the empty range [0, 0) matches no access.
        # MemoryHierarchy ports read these fields to inline the repeat hit.
        self._mru_base = 0
        self._mru_end = 0
        self._mru_lines: Optional[OrderedDict[int, bool]] = None
        self._mru_tag = 0

    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        line = address // self._line_bytes
        return line % self._num_sets, line // self._num_sets

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access the line containing ``address``; returns True on a hit.

        On a miss the line is allocated, possibly evicting the LRU line of
        the set (a dirty eviction increments ``writebacks``).
        """
        stats = self.stats
        stats.accesses += 1
        if self._mru_base <= address < self._mru_end:
            stats.hits += 1
            if is_write:
                self._mru_lines[self._mru_tag] = True
            return True
        line_bytes = self._line_bytes
        line = address // line_bytes
        index = line % self._num_sets
        tag = line // self._num_sets
        lines = self._sets.get(index)
        if lines is None:
            lines = self._sets[index] = OrderedDict()
        self._mru_base = base = line * line_bytes
        self._mru_end = base + line_bytes
        self._mru_lines = lines
        self._mru_tag = tag
        if tag in lines:
            stats.hits += 1
            lines.move_to_end(tag)
            if is_write:
                lines[tag] = True
            return True
        stats.misses += 1
        if len(lines) >= self._associativity:
            _evicted_tag, dirty = lines.popitem(last=False)
            stats.evictions += 1
            if dirty:
                stats.writebacks += 1
        lines[tag] = is_write
        return False

    def access_range(self, address: int, size: int, is_write: bool = False) -> int:
        """Access every line touched by ``[address, address + size)``.

        Returns the number of line misses.
        """
        if size <= 0:
            size = 1
        line_bytes = self._line_bytes
        first = address // line_bytes
        last = (address + size - 1) // line_bytes
        if first == last:
            return 0 if self.access(address, is_write=is_write) else 1
        misses = 0
        for line in range(first, last + 1):
            if not self.access(line * line_bytes, is_write=is_write):
                misses += 1
        return misses

    def contains(self, address: int) -> bool:
        """True if the line containing ``address`` is resident (no side effects)."""
        index, tag = self._index_and_tag(address)
        return tag in self._sets.get(index, ())

    def state_signature(self) -> Tuple[Tuple[int, Tuple[Tuple[int, bool], ...]], ...]:
        """Hashable snapshot of the resident lines *including LRU order*.

        One ``(set_index, ((tag, dirty), ...))`` pair per non-empty set, in
        set-index order, each set listed oldest line first.
        """
        return tuple(
            (index, tuple(lines.items()))
            for index, lines in sorted(self._sets.items())
            if lines
        )

    def invalidate_all(self) -> None:
        """Drop every resident line (used when reconfiguring between runs)."""
        self._sets.clear()
        self._forget_mru()

    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(len(lines) for lines in self._sets.values())
