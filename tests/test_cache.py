"""Unit and property tests for the set-associative cache simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from tests.scalar_uarch import Cache, build_hierarchy


def make_cache(size=1024, line=64, assoc=2, policy=ReplacementPolicy.LRU, **kw):
    return Cache(CacheConfig(size, line, assoc, policy=policy), **kw)


class TestCacheConfig:
    def test_geometry(self):
        config = CacheConfig(32 << 10, 64, 8)
        assert config.num_sets == 64
        assert config.num_lines == 512

    @pytest.mark.parametrize(
        "size,line,assoc",
        [(0, 64, 8), (1024, 60, 8), (1024, 64, 0), (100, 64, 1)],
    )
    def test_invalid_geometry_rejected(self, size, line, assoc):
        with pytest.raises(ConfigurationError):
            CacheConfig(size, line, assoc)

    def test_non_power_of_two_sets_allowed(self):
        # Large LLC slices are often non-power-of-two (e.g. 30MB/20-way).
        config = CacheConfig(30 << 20, 64, 20)
        assert config.num_sets == 24576

    def test_describe(self):
        assert CacheConfig(32 << 10, 64, 8).describe() == "32KB/8-way/64B"
        assert CacheConfig(8 << 20, 64, 16).describe() == "8MB/16-way/64B"


class TestCacheBasics:
    def test_first_access_misses(self):
        cache = make_cache()
        assert cache.access(0x1000) is False
        assert cache.stats.misses == 1

    def test_second_access_hits(self):
        cache = make_cache()
        cache.access(0x1000)
        assert cache.access(0x1000) is True
        assert cache.stats.hits == 1

    def test_same_line_different_bytes_hit(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x1001) is True
        assert cache.access(0x103F) is True

    def test_adjacent_line_misses(self):
        cache = make_cache(line=64)
        cache.access(0x1000)
        assert cache.access(0x1040) is False

    def test_contains(self):
        cache = make_cache()
        cache.access(0x2000)
        assert cache.contains(0x2000)
        assert not cache.contains(0x4000)

    def test_flush_invalidates_but_keeps_stats(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.flush()
        assert not cache.contains(0x1000)
        assert cache.stats.accesses == 1

    def test_reset_clears_stats(self):
        cache = make_cache()
        cache.access(0x1000)
        cache.reset()
        assert cache.stats.accesses == 0

    def test_stats_ratios(self):
        cache = make_cache()
        cache.access(0)
        cache.access(0)
        assert cache.stats.miss_ratio == pytest.approx(0.5)
        assert cache.stats.hit_ratio == pytest.approx(0.5)

    def test_empty_stats_ratios_zero(self):
        cache = make_cache()
        assert cache.stats.miss_ratio == 0.0
        assert cache.stats.hit_ratio == 0.0


class TestLruReplacement:
    def test_lru_evicts_least_recent(self):
        # 2-way cache; fill one set with 2 lines, touch the first, insert
        # a third: the second must be the victim.
        cache = make_cache(size=8 * 64 * 2, line=64, assoc=2)
        sets = cache.config.num_sets
        a, b, c = 0, sets * 64, 2 * sets * 64  # all map to set 0
        cache.access(a)
        cache.access(b)
        cache.access(a)  # refresh a
        cache.access(c)  # evicts b
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_working_set_within_capacity_never_misses_after_warmup(self):
        cache = make_cache(size=64 * 64, line=64, assoc=4)
        lines = [i * 64 for i in range(32)]
        for address in lines:
            cache.access(address)
        cache.stats.reset()
        for _ in range(10):
            for address in lines:
                assert cache.access(address)
        assert cache.stats.misses == 0

    def test_streaming_never_hits(self):
        cache = make_cache(size=64 * 64, line=64)
        for i in range(1000):
            assert cache.access(i * 64) is False


class TestWriteHandling:
    def test_dirty_eviction_counts_writeback(self):
        cache = make_cache(size=2 * 64, line=64, assoc=1)
        cache.access(0, is_write=True)
        cache.access(cache.config.num_sets * 64)  # conflicts, evicts dirty line
        assert cache.stats.writebacks >= 1

    def test_clean_eviction_no_writeback(self):
        cache = make_cache(size=2 * 64, line=64, assoc=1)
        cache.access(0, is_write=False)
        cache.access(cache.config.num_sets * 64)
        assert cache.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = make_cache(size=2 * 64, line=64, assoc=1)
        cache.access(0, is_write=False)
        cache.access(0, is_write=True)
        cache.access(cache.config.num_sets * 64)
        assert cache.stats.writebacks == 1


class TestHierarchy:
    def test_miss_propagates_to_next_level(self):
        l2 = make_cache(size=1 << 16, assoc=8, name="L2")
        l1 = Cache(CacheConfig(1 << 12, 64, 4), name="L1", next_level=l2)
        l1.access(0x5000)
        assert l2.stats.accesses == 1
        assert l2.stats.misses == 1

    def test_l1_hit_does_not_touch_l2(self):
        l2 = make_cache(size=1 << 16, assoc=8)
        l1 = Cache(CacheConfig(1 << 12, 64, 4), next_level=l2)
        l1.access(0x5000)
        l1.access(0x5000)
        assert l2.stats.accesses == 1

    def test_l2_captures_l1_conflict_victims(self):
        l2 = make_cache(size=1 << 16, assoc=16)
        l1 = Cache(CacheConfig(64 * 4, 64, 1), next_level=l2)
        lines = [i * l1.config.num_sets * 64 for i in range(8)]
        for _ in range(4):
            for address in lines:
                l1.access(address)
        # All lines fit easily in L2: after the first round L2 misses stop.
        assert l2.stats.misses == len(lines)

    def test_build_hierarchy_links_levels(self):
        caches = build_hierarchy(
            [CacheConfig(1 << 12, 64, 4), CacheConfig(1 << 16, 64, 8)],
            names=["L1", "L2"],
        )
        assert caches[0].next_level is caches[1]
        assert caches[1].next_level is None

    def test_build_hierarchy_validates(self):
        with pytest.raises(ConfigurationError):
            build_hierarchy([])
        with pytest.raises(ConfigurationError):
            build_hierarchy([CacheConfig(1 << 12)], names=["a", "b"])


class TestReplacementPolicies:
    @pytest.mark.parametrize(
        "policy", [ReplacementPolicy.LRU, ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM]
    )
    def test_all_policies_bounded_occupancy(self, policy):
        cache = make_cache(size=16 * 64, line=64, assoc=4, policy=policy)
        rng = np.random.default_rng(0)
        for address in rng.integers(0, 1 << 20, 2000) * 64:
            cache.access(int(address))
        resident = int((cache._tags >= 0).sum())
        assert resident <= cache.config.num_lines

    def test_fifo_ignores_recency(self):
        # FIFO evicts the oldest arrival even if recently touched.
        cache = make_cache(size=2 * 64, line=64, assoc=2, policy=ReplacementPolicy.FIFO)
        sets = cache.config.num_sets
        a, b, c = 0, sets * 64, 2 * sets * 64
        cache.access(a)
        cache.access(b)
        cache.access(a)  # does not refresh under FIFO
        cache.access(c)  # evicts a (oldest arrival)
        assert not cache.contains(a)
        assert cache.contains(b)


class TestCacheProperties:
    @given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_stats_invariants(self, addresses):
        cache = make_cache(size=1024, line=64, assoc=2)
        for address in addresses:
            cache.access(address)
        stats = cache.stats
        assert stats.accesses == len(addresses)
        assert stats.hits + stats.misses == stats.accesses
        assert stats.evictions <= stats.misses

    @given(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_bigger_cache_never_misses_more_lru(self, addresses):
        # LRU inclusion property: a larger fully-associative LRU cache
        # never misses more than a smaller one on the same trace.
        small = make_cache(size=4 * 64, line=64, assoc=4)
        large = make_cache(size=16 * 64, line=64, assoc=16)
        for address in addresses:
            small.access(address)
            large.access(address)
        assert large.stats.misses <= small.stats.misses

    @given(st.lists(st.integers(0, 1 << 18), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_deterministic_replay(self, addresses):
        first = make_cache()
        second = make_cache()
        for address in addresses:
            first.access(address)
            second.access(address)
        assert first.stats.misses == second.stats.misses
