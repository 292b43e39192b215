"""Tests for the cache model and the memory hierarchy."""

import random

import pytest

from repro.cache.cache import Cache
from repro.cache.hierarchy import AccessType, MemoryHierarchy
from repro.core.config import CacheConfig, MemoryHierarchyConfig


class TestCache:
    def make(self, size=1024, line=64, ways=2):
        return Cache(CacheConfig(size, line, ways, 1))

    def test_miss_then_hit(self):
        cache = self.make()
        assert cache.access(0x1000) is False
        assert cache.access(0x1000) is True

    def test_same_line_hits(self):
        cache = self.make()
        cache.access(0x1000)
        assert cache.access(0x103F) is True
        assert cache.access(0x1040) is False

    def test_lru_eviction_within_set(self):
        cache = self.make(size=256, line=64, ways=2)   # 2 sets, 2 ways
        num_sets = cache.config.num_sets
        base = 0x0
        stride = num_sets * 64                          # same set, different tags
        cache.access(base)
        cache.access(base + stride)
        cache.access(base)                              # refresh first line
        cache.access(base + 2 * stride)                 # evicts the second line
        assert cache.contains(base)
        assert not cache.contains(base + stride)

    def test_dirty_eviction_counts_writeback(self):
        cache = self.make(size=128, line=64, ways=1)    # direct mapped, 2 sets
        stride = cache.config.num_sets * 64
        cache.access(0x0, is_write=True)
        cache.access(stride)                            # evicts dirty line
        assert cache.stats.writebacks == 1

    def test_access_range_spanning_lines(self):
        cache = self.make()
        misses = cache.access_range(0x1030, 64)
        assert misses == 2

    def test_invalidate_all(self):
        cache = self.make()
        cache.access(0x1000)
        cache.invalidate_all()
        assert cache.resident_lines() == 0

    def test_miss_rate(self):
        cache = self.make()
        cache.access(0x0)
        cache.access(0x0)
        assert cache.stats.miss_rate == pytest.approx(0.5)


class TestHierarchy:
    def test_latencies_by_level(self):
        hierarchy = MemoryHierarchy(MemoryHierarchyConfig(), num_cores=2)
        cold = hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        warm = hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        assert cold == 1 + 10 + 200
        assert warm == 1

    def test_l2_shared_between_cores(self):
        hierarchy = MemoryHierarchy(num_cores=2)
        hierarchy.access(0, 0x2000, AccessType.DATA_READ)
        # core 1 misses its private L1 but hits the shared L2
        latency = hierarchy.access(1, 0x2000, AccessType.DATA_READ)
        assert latency == 1 + 10

    def test_instruction_fetch_uses_l1i(self):
        hierarchy = MemoryHierarchy(num_cores=1)
        hierarchy.access(0, 0x8048000, AccessType.INSTRUCTION_FETCH)
        assert hierarchy.core(0).l1i.stats.accesses == 1
        assert hierarchy.core(0).l1d.stats.accesses == 0

    def test_private_l1_per_core(self):
        hierarchy = MemoryHierarchy(num_cores=2)
        hierarchy.access(0, 0x3000, AccessType.DATA_WRITE)
        assert hierarchy.core(1).l1d.stats.accesses == 0

    def test_miss_rate_helper(self):
        hierarchy = MemoryHierarchy(num_cores=1)
        hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        hierarchy.access(0, 0x1000, AccessType.DATA_READ)
        assert hierarchy.total_l1_miss_rate(0) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Differential tests against a reference LRU model.
#
# ``Cache`` answers a repeat access to its last-accessed line without the
# set lookup, and ``MemoryHierarchy.port`` inlines that check.  The model
# below is the plain textbook cache -- a list per set, oldest line first --
# so any drift of the fast path in counters, dirty bits or LRU order shows
# up as a mismatch.
# ---------------------------------------------------------------------------

GEOMETRIES = [
    CacheConfig(64, 64, 1, 1),      # one line
    CacheConfig(128, 32, 1, 1),     # direct mapped, 4 sets
    CacheConfig(256, 64, 2, 1),     # 2 sets x 2 ways
    CacheConfig(512, 16, 4, 1),     # 8 sets x 4 ways
    CacheConfig(192, 16, 3, 1),     # 4 sets x 3 ways
]


class ReferenceCache:
    """Set-associative, write-back, write-allocate LRU cache, spelled out."""

    def __init__(self, config):
        self.line_bytes = config.line_bytes
        self.num_sets = config.num_sets
        self.ways = config.associativity
        self.sets = {}
        self.stats = [0, 0, 0, 0, 0]  # accesses, hits, misses, evictions, writebacks

    def access(self, address, is_write=False):
        line = address // self.line_bytes
        index, tag = line % self.num_sets, line // self.num_sets
        lines = self.sets.setdefault(index, [])
        self.stats[0] += 1
        for position, (resident, dirty) in enumerate(lines):
            if resident == tag:
                self.stats[1] += 1
                del lines[position]
                lines.append((tag, dirty or is_write))
                return True
        self.stats[2] += 1
        if len(lines) >= self.ways:
            _victim, dirty = lines.pop(0)
            self.stats[3] += 1
            self.stats[4] += int(dirty)
        lines.append((tag, is_write))
        return False

    def access_range(self, address, size, is_write=False):
        size = max(size, 1)
        first = address // self.line_bytes
        last = (address + size - 1) // self.line_bytes
        return sum(
            0 if self.access(line * self.line_bytes, is_write) else 1
            for line in range(first, last + 1)
        )

    def invalidate_all(self):
        self.sets.clear()

    def state_signature(self):
        return tuple(
            (index, tuple(lines)) for index, lines in sorted(self.sets.items()) if lines
        )


def _stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.evictions, stats.writebacks)


def _random_address(rng, previous, config):
    """Mostly repeats or near neighbours of the last address (the MRU path)."""
    roll = rng.random()
    if roll < 0.45:
        return previous + rng.randrange(-4, 5) if previous >= 4 else previous
    if roll < 0.6:
        return (previous // config.line_bytes) * config.line_bytes + config.line_bytes
    return rng.randrange(0, 6 * config.size_bytes)


class TestCacheMatchesReference:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize(
        "config", GEOMETRIES,
        ids=lambda c: f"{c.size_bytes}B-{c.line_bytes}L-{c.associativity}W",
    )
    def test_random_sequences(self, config, seed):
        rng = random.Random(seed)
        cache, reference = Cache(config), ReferenceCache(config)
        address = 0
        for _ in range(600):
            address = _random_address(rng, address, config)
            is_write = rng.random() < 0.3
            roll = rng.random()
            if roll < 0.02:
                cache.invalidate_all()
                reference.invalidate_all()
            elif roll < 0.3:
                size = rng.choice([0, 1, 2, 4, config.line_bytes, 2 * config.line_bytes + 3])
                assert cache.access_range(address, size, is_write) == \
                    reference.access_range(address, size, is_write)
            else:
                assert cache.access(address, is_write) == reference.access(address, is_write)
            assert _stats_tuple(cache.stats) == tuple(reference.stats)
            assert cache.state_signature() == reference.state_signature()
            assert cache.resident_lines() == sum(len(s) for s in reference.sets.values())

    def test_repeat_write_marks_line_dirty(self):
        cache = Cache(CacheConfig(64, 64, 1, 1))
        cache.access(0x40)
        cache.access(0x44, is_write=True)               # MRU repeat, a write
        assert cache.state_signature() == ((0, ((1, True),)),)
        cache.access(0x80)                              # evicts the dirty line
        assert cache.stats.writebacks == 1

    def test_invalidate_all_forgets_last_line(self):
        cache = Cache(CacheConfig(128, 64, 1, 1))
        cache.access(0x1000)
        cache.invalidate_all()
        assert cache.access(0x1000) is False
        assert _stats_tuple(cache.stats) == (2, 0, 2, 0, 0)


SMALL_HIERARCHY = MemoryHierarchyConfig(
    l1i=CacheConfig(128, 32, 2, 1),
    l1d=CacheConfig(256, 32, 2, 2),
    l2=CacheConfig(1024, 32, 4, 10),
    memory_latency_cycles=200,
)

ACCESS_TYPES = (AccessType.INSTRUCTION_FETCH, AccessType.DATA_READ, AccessType.DATA_WRITE)


def _hierarchy_signature(hierarchy):
    caches = []
    for core in range(hierarchy.num_cores):
        for cache in (hierarchy.core(core).l1i, hierarchy.core(core).l1d):
            caches.append((_stats_tuple(cache.stats), cache.state_signature()))
    caches.append((_stats_tuple(hierarchy.l2.stats), hierarchy.l2.state_signature()))
    return caches, hierarchy.memory_accesses


class TestHierarchyPorts:
    def _reference_latency(self, reference, config, core, address, access_type, size):
        """Documented hierarchy semantics over reference caches."""
        is_write = access_type is AccessType.DATA_WRITE
        kind = "l1i" if access_type is AccessType.INSTRUCTION_FETCH else "l1d"
        l1_config = getattr(config, kind)
        latency = l1_config.latency_cycles
        if not reference[core][kind].access_range(address, size, is_write):
            return latency
        latency += config.l2.latency_cycles
        if reference["l2"].access(address, is_write):
            return latency
        reference["memory"] += 1
        return latency + config.memory_latency_cycles

    @pytest.mark.parametrize("seed", range(8))
    def test_access_and_ports_agree_with_reference(self, seed):
        config = SMALL_HIERARCHY
        rng = random.Random(seed)
        via_access = MemoryHierarchy(config, num_cores=2)
        via_port = MemoryHierarchy(config, num_cores=2)
        reference = {
            core: {"l1i": ReferenceCache(config.l1i), "l1d": ReferenceCache(config.l1d)}
            for core in range(2)
        }
        reference["l2"] = ReferenceCache(config.l2)
        reference["memory"] = 0
        last = {core: 0 for core in range(2)}
        for _ in range(1500):
            core = rng.randrange(2)
            access_type = rng.choice(ACCESS_TYPES)
            address = last[core] = _random_address(rng, last[core], config.l1d)
            size = rng.choice([0, 1, 4, 4, 4, 8, 40])
            expected = self._reference_latency(
                reference, config, core, address, access_type, size
            )
            assert via_access.access(core, address, access_type, size) == expected
            assert via_port.port(core, access_type)(address, size) == expected
        assert _hierarchy_signature(via_access) == _hierarchy_signature(via_port)
        caches, memory = _hierarchy_signature(via_access)
        expected_caches = [
            (tuple(reference[core][kind].stats), reference[core][kind].state_signature())
            for core in range(2)
            for kind in ("l1i", "l1d")
        ]
        expected_caches.append(
            (tuple(reference["l2"].stats), reference["l2"].state_signature())
        )
        assert caches == expected_caches
        assert memory == reference["memory"]

    def test_ports_are_shared_per_core_and_kind(self):
        hierarchy = MemoryHierarchy(num_cores=2)
        read = hierarchy.port(1, AccessType.DATA_READ)
        assert hierarchy.port(1, AccessType.DATA_READ) is read
        assert hierarchy.port(0, AccessType.DATA_READ) is not read
        assert hierarchy.port(1, AccessType.DATA_WRITE) is not read
