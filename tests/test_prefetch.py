"""Tests for the prefetcher models."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.uarch.cache import CacheConfig
from tests.scalar_uarch import (
    Cache,
    NextLinePrefetcher,
    PrefetchStats,
    StridePrefetcher,
)


def make_cache(lines=64, assoc=4):
    return Cache(CacheConfig(lines * 64, 64, assoc))


class TestPrefetchStats:
    def test_empty_stats(self):
        stats = PrefetchStats()
        assert stats.accuracy == 0.0
        assert stats.coverage == 0.0

    def test_ratios(self):
        stats = PrefetchStats(issued=10, useful=5, demand_misses=5)
        assert stats.accuracy == pytest.approx(0.5)
        assert stats.coverage == pytest.approx(0.5)


class TestNextLinePrefetcher:
    def test_sequential_stream_mostly_covered(self):
        prefetcher = NextLinePrefetcher(make_cache(), degree=2)
        for i in range(2000):
            prefetcher.access(i * 64)
        assert prefetcher.stats.coverage > 0.6
        assert prefetcher.stats.accuracy > 0.8

    def test_random_stream_not_covered(self):
        prefetcher = NextLinePrefetcher(make_cache(), degree=2)
        rng = np.random.default_rng(0)
        for address in rng.integers(0, 1 << 24, 2000) * 64:
            prefetcher.access(int(address))
        assert prefetcher.stats.coverage < 0.1

    def test_degree_validated(self):
        with pytest.raises(ConfigurationError):
            NextLinePrefetcher(make_cache(), degree=0)

    def test_no_prefetch_on_hits(self):
        prefetcher = NextLinePrefetcher(make_cache(), degree=1)
        prefetcher.access(0)
        issued_after_miss = prefetcher.stats.issued
        prefetcher.access(0)  # hit
        assert prefetcher.stats.issued == issued_after_miss

    def test_demand_accounting(self):
        prefetcher = NextLinePrefetcher(make_cache(), degree=1)
        prefetcher.access(0)
        prefetcher.access(0)
        assert prefetcher.stats.demand_accesses == 2
        assert prefetcher.stats.demand_misses == 1


class TestStridePrefetcher:
    def test_strided_stream_covered(self):
        prefetcher = StridePrefetcher(make_cache(), degree=2)
        # stride of 256 bytes (4 lines): next-line would not catch this
        for i in range(2000):
            prefetcher.access(i * 256)
        assert prefetcher.stats.coverage > 0.5

    def test_beats_next_line_on_strided_stream(self):
        stride_pf = StridePrefetcher(make_cache(), degree=2)
        nextline_pf = NextLinePrefetcher(make_cache(), degree=2)
        for i in range(2000):
            stride_pf.access(i * 512)
            nextline_pf.access(i * 512)
        assert stride_pf.stats.coverage > nextline_pf.stats.coverage

    def test_pointer_chase_uncovered(self):
        prefetcher = StridePrefetcher(make_cache(), degree=2)
        rng = np.random.default_rng(1)
        for address in rng.integers(0, 1 << 24, 2000) * 64:
            prefetcher.access(int(address))
        assert prefetcher.stats.coverage < 0.15

    def test_regions_validated(self):
        with pytest.raises(ConfigurationError):
            StridePrefetcher(make_cache(), regions=0)

    def test_stride_confidence_needs_two_confirmations(self):
        prefetcher = StridePrefetcher(make_cache(), degree=1)
        prefetcher.access(0)
        prefetcher.access(128)      # stride learned, not yet confident
        first_issued = prefetcher.stats.issued
        prefetcher.access(256)      # confident -> prefetch 384
        assert prefetcher.stats.issued > first_issued


class TestPatternAsymmetry:
    """The modelling decision the prefetchers validate: streaming access
    patterns are coverable, pointer chasing is not — which is why lbm's
    calibrated effective-MLP is large and mcf's is small."""

    def test_streaming_vs_pointer_chasing_coverage(self):
        streaming = NextLinePrefetcher(make_cache(lines=512, assoc=8), degree=2)
        for i in range(20_000):
            streaming.access((i % 100_000) * 64)
        chasing = NextLinePrefetcher(make_cache(lines=512, assoc=8), degree=2)
        rng = np.random.default_rng(5)
        for address in rng.integers(0, 1 << 22, 20_000) * 64:
            chasing.access(int(address))
        assert streaming.stats.coverage > chasing.stats.coverage + 0.3
