"""Unit tests for TLB simulation and page-walk costing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.uarch.tlb import PageWalker, TlbConfig
from tests.scalar_uarch import Tlb, TlbHierarchy

PAGE = 4096


class TestTlbConfig:
    def test_geometry(self):
        config = TlbConfig(entries=64, associativity=4)
        assert config.num_sets == 16

    @pytest.mark.parametrize(
        "entries,assoc,page",
        [(0, 4, 4096), (64, 0, 4096), (64, 5, 4096), (64, 4, 1000), (96, 4, 4096)],
    )
    def test_invalid_rejected(self, entries, assoc, page):
        with pytest.raises(ConfigurationError):
            TlbConfig(entries=entries, associativity=assoc, page_bytes=page)

    def test_fully_associative(self):
        config = TlbConfig(entries=48, associativity=48)
        assert config.num_sets == 1


class TestTlb:
    def test_first_translation_misses(self):
        tlb = Tlb(TlbConfig(16, 4))
        assert tlb.access(0x1000) is False
        assert tlb.access(0x1000) is True

    def test_same_page_hits(self):
        tlb = Tlb(TlbConfig(16, 4))
        tlb.access(0)
        assert tlb.access(PAGE - 1) is True

    def test_different_page_misses(self):
        tlb = Tlb(TlbConfig(16, 4))
        tlb.access(0)
        assert tlb.access(PAGE) is False

    def test_lru_within_set(self):
        tlb = Tlb(TlbConfig(2, 2))  # one set, two ways
        tlb.access(0 * PAGE)
        tlb.access(1 * PAGE)
        tlb.access(0 * PAGE)
        tlb.access(2 * PAGE)  # evicts page 1
        assert tlb.access(0 * PAGE) is True
        assert tlb.access(1 * PAGE) is False

    def test_miss_ratio(self):
        tlb = Tlb(TlbConfig(16, 4))
        tlb.access(0)
        tlb.access(0)
        assert tlb.miss_ratio == pytest.approx(0.5)

    def test_reset(self):
        tlb = Tlb(TlbConfig(16, 4))
        tlb.access(0)
        tlb.reset()
        assert tlb.accesses == 0
        assert tlb.access(0) is False

    def test_capacity_bounded_working_set_hits(self):
        tlb = Tlb(TlbConfig(32, 32))
        pages = [i * PAGE for i in range(16)]
        for address in pages:
            tlb.access(address)
        for address in pages:
            assert tlb.access(address) is True

    @given(st.lists(st.integers(0, 1 << 24), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_stats_invariants(self, addresses):
        tlb = Tlb(TlbConfig(16, 4))
        for address in addresses:
            tlb.access(address)
        assert tlb.accesses == len(addresses)
        assert 0 <= tlb.misses <= tlb.accesses


class TestPageWalker:
    def test_average_between_cached_and_full(self):
        walker = PageWalker(walk_cycles=40, cached_fraction=0.5, cached_cycles=10)
        assert walker.average_cycles() == pytest.approx(25.0)

    def test_no_cache_means_full_cost(self):
        walker = PageWalker(walk_cycles=40, cached_fraction=0.0)
        assert walker.average_cycles() == pytest.approx(40.0)


class TestTlbHierarchy:
    def build(self, unified=True, l2=256):
        return TlbHierarchy(
            itlb=TlbConfig(16, 4),
            dtlb=TlbConfig(16, 4),
            l2=TlbConfig(l2, 4) if l2 else None,
            unified_l2=unified,
        )

    def test_l1_hit_no_walk(self):
        hierarchy = self.build()
        hierarchy.translate_data(0)
        hierarchy.translate_data(0)
        assert hierarchy.page_walks == 1  # only the first cold access

    def test_unified_l2_shared_between_streams(self):
        hierarchy = self.build(unified=True)
        assert hierarchy.l2_itlb is hierarchy.l2_dtlb

    def test_split_l2_separate(self):
        hierarchy = self.build(unified=False)
        assert hierarchy.l2_itlb is not hierarchy.l2_dtlb

    def test_l2_covers_l1_capacity_misses(self):
        hierarchy = self.build()
        pages = [i * PAGE for i in range(64)]  # > L1 (16), < L2 (256)
        for address in pages:
            hierarchy.translate_data(address)
        walks_after_warmup = hierarchy.page_walks
        for address in pages:
            hierarchy.translate_data(address)
        # second pass: L1 misses but L2 hits -> no further walks
        assert hierarchy.page_walks == walks_after_warmup

    def test_no_l2_means_every_l1_miss_walks(self):
        hierarchy = self.build(l2=None)
        hierarchy.translate_data(0)
        hierarchy.translate_data(PAGE)
        assert hierarchy.page_walks == 2

    def test_last_level_misses_without_l2(self):
        hierarchy = self.build(l2=None)
        hierarchy.translate_data(0)
        hierarchy.translate_inst(PAGE)
        assert hierarchy.last_level_misses() == 2

    def test_instruction_stream_uses_itlb(self):
        hierarchy = self.build()
        hierarchy.translate_inst(0)
        assert hierarchy.itlb.accesses == 1
        assert hierarchy.dtlb.accesses == 0

    def test_reset(self):
        hierarchy = self.build()
        hierarchy.translate_data(0)
        hierarchy.translate_inst(PAGE)
        hierarchy.reset()
        assert hierarchy.page_walks == 0
        assert hierarchy.dtlb.accesses == 0
        assert hierarchy.itlb.accesses == 0

    def test_random_pages_walk_often(self):
        hierarchy = self.build(l2=64)
        rng = np.random.default_rng(0)
        for page in rng.integers(0, 1 << 20, 2000):
            hierarchy.translate_data(int(page) * PAGE)
        # far beyond any TLB capacity: nearly every access walks
        assert hierarchy.page_walks > 1500
