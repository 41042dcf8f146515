"""Tests for the cache hierarchy simulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.perf.cache import (
    CacheConfig,
    CacheHierarchy,
    CacheLevel,
    hierarchy_for_vcpus,
)


class TestConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size_bytes=4096, line_bytes=64, associativity=4)
        assert cfg.num_sets == 16

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=64, associativity=7)


class TestCacheLevel:
    def test_hit_after_miss(self):
        level = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
        assert not level.access(0)
        assert level.access(0)
        assert level.access(63)  # same line
        assert not level.access(64)  # next line

    def test_lru_eviction(self):
        # 2-way, 1 set: 128B cache with 64B lines
        level = CacheLevel(CacheConfig(size_bytes=128, line_bytes=64, associativity=2))
        level.access(0)    # line 0
        level.access(64)   # line 1
        level.access(0)    # touch line 0 (now MRU)
        level.access(128)  # evicts line 1 (LRU)
        assert level.access(0)
        assert not level.access(64)

    def test_stats(self):
        level = CacheLevel(CacheConfig(size_bytes=1024, line_bytes=64, associativity=2))
        for a in (0, 0, 64):
            level.access(a)
        assert level.hits == 1
        assert level.misses == 2
        assert level.miss_rate == pytest.approx(2 / 3)
        level.reset_stats()
        assert level.hits == 0 and level.misses == 0

    @given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, addresses):
        level = CacheLevel(CacheConfig(size_bytes=512, line_bytes=64, associativity=2))
        for a in addresses:
            level.access(a)
        assert level.hits + level.misses == len(addresses)

    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_bigger_cache_never_misses_more(self, addresses):
        """Inclusion property of LRU: a larger cache has fewer misses."""
        small = CacheLevel(CacheConfig(size_bytes=512, line_bytes=64, associativity=8))
        large = CacheLevel(CacheConfig(size_bytes=4096, line_bytes=64, associativity=8))
        # Use fully-associative-like configs (single set) for strict LRU
        # inclusion; here both have 1 and 8 sets, so compare loosely.
        for a in addresses:
            small.access(a)
            large.access(a)
        assert large.misses <= small.misses + 8  # small slack for set effects


class TestHierarchy:
    def test_l1_hit_short_circuits_llc(self):
        h = hierarchy_for_vcpus(1)
        h.access(0)
        llc_before = h.llc.hits + h.llc.misses
        h.access(0)  # L1 hit
        assert h.llc.hits + h.llc.misses == llc_before

    def test_llc_must_cover_l1(self):
        small = CacheConfig(size_bytes=4096, line_bytes=64, associativity=4)
        tiny = CacheConfig(size_bytes=1024, line_bytes=64, associativity=4)
        with pytest.raises(ValueError):
            CacheHierarchy(small, tiny)

    def test_access_stream_counts(self):
        h = hierarchy_for_vcpus(1)
        h.access_stream(range(0, 64 * 100, 64))
        stats = h.stats
        assert stats["l1_hits"] + stats["l1_misses"] == 100

    def test_vcpus_scale_llc_not_l1(self):
        h1 = hierarchy_for_vcpus(1)
        h8 = hierarchy_for_vcpus(8)
        assert h8.llc.config.size_bytes == 8 * h1.llc.config.size_bytes
        assert h8.l1.config.size_bytes == h1.l1.config.size_bytes

    def test_invalid_vcpus(self):
        with pytest.raises(ValueError):
            hierarchy_for_vcpus(0)

    def test_capacity_miss_disappears_with_bigger_llc(self):
        """A working set between the two LLC sizes shows the VM effect."""
        # 64KB working set: misses in 32KB LLC (1 vCPU), fits in 256KB (8).
        addresses = list(range(0, 64 * 1024, 64)) * 3
        h1 = hierarchy_for_vcpus(1)
        h8 = hierarchy_for_vcpus(8)
        h1.access_stream(addresses)
        h8.access_stream(addresses)
        assert h8.llc.misses < h1.llc.misses


class TestAccessStreamDifferential:
    """``access_stream`` is exactly a per-address replay through
    :meth:`CacheLevel.access`: same hits, misses and final set contents."""

    @staticmethod
    def replay(h, addresses):
        for addr in addresses:
            if not h.l1.access(addr):
                h.llc.access(addr)

    @pytest.mark.parametrize("vcpus", [1, 2, 4, 8])
    def test_matches_per_access_replay(self, vcpus):
        rng = random.Random(vcpus)
        llc_bytes = hierarchy_for_vcpus(vcpus).llc.config.size_bytes
        streamed, replayed = hierarchy_for_vcpus(vcpus), hierarchy_for_vcpus(vcpus)
        for _ in range(4):
            # A hot window reused often plus a cold span around the LLC
            # size: hits and evictions at both levels.
            hot = [rng.randrange(4096) for _ in range(2000)]
            cold = [rng.randrange(2 * llc_bytes) for _ in range(3000)]
            stream = hot + cold
            rng.shuffle(stream)
            streamed.access_stream(stream)
            self.replay(replayed, stream)
            assert streamed.stats == replayed.stats
        for a, b in ((streamed.l1, replayed.l1), (streamed.llc, replayed.llc)):
            assert a._sets == b._sets
        assert streamed.llc.misses > 0 and streamed.l1.hits > 0
