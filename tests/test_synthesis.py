"""Tests for synthetic trace generation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads import synthesis
from repro.workloads.profiles import ReuseProfile
from repro.workloads.spec import get_workload
from repro.workloads.synthesis import (
    synthesize_address_stream,
    synthesize_trace,
)
from tests.parity import reference_address_stream, rng_for


def profile(median=100.0, sigma=1.0, cold=0.0):
    return ReuseProfile.from_tuples([(1.0, median, sigma)], cold)


class TestAddressStream:
    def test_length(self):
        rng = np.random.default_rng(0)
        addresses = synthesize_address_stream(profile(), 500, rng)
        assert addresses.shape == (500,)

    def test_negative_length_rejected(self):
        with pytest.raises(ConfigurationError):
            synthesize_address_stream(profile(), -1, np.random.default_rng(0))

    def test_line_alignment(self):
        rng = np.random.default_rng(0)
        addresses = synthesize_address_stream(profile(), 300, rng, line_bytes=64)
        assert (addresses % 64 == 0).all()

    def test_stack_distance_distribution_reproduced(self):
        """An exact-LRU simulation of the stream must see roughly the
        profile's miss ratio at the matching capacity."""
        target = profile(median=60.0, sigma=0.8)
        rng = np.random.default_rng(1)
        addresses = synthesize_address_stream(target, 30_000, rng)
        from repro.uarch.cache import CacheConfig
        from tests.scalar_uarch import Cache

        cache = Cache(CacheConfig(256 * 64, 64, 256))  # fully assoc, 256 lines
        warm = 5000
        for i, address in enumerate(addresses):
            if i == warm:
                cache.stats.reset()
            cache.access(int(address))
        assert cache.stats.miss_ratio == pytest.approx(
            target.miss_ratio(256), abs=0.04
        )

    def test_page_packing_controls_page_working_set(self):
        rng = np.random.default_rng(2)
        dense = synthesize_address_stream(
            profile(median=600, sigma=1.0), 20_000, rng, lines_per_page=32
        )
        rng = np.random.default_rng(2)
        sparse = synthesize_address_stream(
            profile(median=600, sigma=1.0), 20_000, rng, lines_per_page=1
        )
        pages_dense = len(set(int(a) >> 12 for a in dense))
        pages_sparse = len(set(int(a) >> 12 for a in sparse))
        assert pages_sparse > 5 * pages_dense

    def test_base_address_respected(self):
        rng = np.random.default_rng(0)
        addresses = synthesize_address_stream(
            profile(), 100, rng, base_address=1 << 40
        )
        assert (addresses >= (1 << 40)).all()

    def test_set_index_uniformity(self):
        """Line addresses must spread over cache sets even with sparse
        page packing (regression test for the set-aliasing bug)."""
        rng = np.random.default_rng(3)
        addresses = synthesize_address_stream(
            profile(median=800, sigma=1.0), 30_000, rng, lines_per_page=2
        )
        sets = (addresses >> 6) % 64
        counts = np.bincount(sets.astype(int), minlength=64)
        assert counts.min() > 0.2 * counts.mean()


def random_profile(rnd) -> ReuseProfile:
    """A lognormal mixture of 1-3 components, with or without cold mass."""
    return ReuseProfile.from_tuples(
        [
            (rnd.uniform(0.1, 1.0), 10 ** rnd.uniform(0, 4), rnd.uniform(0.2, 2.5))
            for _ in range(rnd.randint(1, 3))
        ],
        rnd.choice([0.0, rnd.uniform(0.0, 0.3)]),
    )


class TestReferenceLoop:
    """The move-to-front loop draws what the loop it replaced drew."""

    @staticmethod
    def assert_same_stream(n, rnd, seed):
        kwargs = dict(
            line_bytes=rnd.choice([32, 64, 128]),
            lines_per_page=rnd.choice([1.0, 2.5, 16.0, 50.0]),
            page_bytes=rnd.choice([4096, 8192]),
            base_address=rnd.choice([0, 1 << 40]),
        )
        target = random_profile(rnd)
        got_rng = np.random.default_rng(seed)
        want_rng = np.random.default_rng(seed)
        got = synthesize_address_stream(target, n, got_rng, **kwargs)
        want = reference_address_stream(target, n, want_rng, **kwargs)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want), (seed, kwargs)
        # The generator is left at the same draw.
        assert got_rng.integers(0, 1 << 62) == want_rng.integers(0, 1 << 62)
        return got

    def test_random_profiles(self):
        for trial in range(12):
            rnd = rng_for("synthesis-loop", trial)
            self.assert_same_stream(rnd.randint(1, 6_000), rnd, trial)

    def test_empty_stream(self):
        rnd = rng_for("synthesis-loop", "empty")
        got = self.assert_same_stream(0, rnd, 5)
        assert got.shape == (0,)

    def test_truncated_stack(self, monkeypatch):
        # A stack of 24 lines: most reuses of these profiles reach past
        # it, allocate, and truncate the stack.
        monkeypatch.setattr(synthesis, "MAX_STACK_DEPTH", 24)
        for trial in range(6):
            rnd = rng_for("synthesis-truncated", trial)
            got = self.assert_same_stream(4_000, rnd, trial)
            assert np.unique(got).size > 24


class TestSynthesizeTrace:
    def test_stream_lengths_follow_mix(self):
        spec = get_workload("505.mcf_r")
        trace = synthesize_trace(spec, 50_000, seed=1)
        assert trace.instructions == 50_000
        expected_mem = 50_000 * spec.mix.memory
        assert trace.data_refs == pytest.approx(expected_mem, rel=0.01)
        assert trace.branches == pytest.approx(50_000 * spec.mix.branch, rel=0.01)

    def test_store_share(self):
        spec = get_workload("505.mcf_r")
        trace = synthesize_trace(spec, 80_000, seed=2)
        store_share = trace.data_is_store.mean()
        assert store_share == pytest.approx(
            spec.mix.store / spec.mix.memory, abs=0.03
        )

    def test_taken_fraction(self):
        spec = get_workload("502.gcc_r")
        trace = synthesize_trace(spec, 80_000, seed=3)
        assert trace.branch_taken.mean() == pytest.approx(
            spec.branches.taken_fraction, abs=0.06
        )

    def test_code_and_data_disjoint(self):
        trace = synthesize_trace(get_workload("541.leela_r"), 20_000, seed=0)
        assert trace.ifetch_addresses.min() >= (1 << 40)
        assert trace.data_addresses.max() < (1 << 40)

    def test_deterministic_per_seed(self):
        spec = get_workload("541.leela_r")
        first = synthesize_trace(spec, 10_000, seed=7)
        second = synthesize_trace(spec, 10_000, seed=7)
        assert np.array_equal(first.data_addresses, second.data_addresses)
        assert np.array_equal(first.branch_taken, second.branch_taken)

    def test_different_seeds_differ(self):
        spec = get_workload("541.leela_r")
        first = synthesize_trace(spec, 10_000, seed=7)
        second = synthesize_trace(spec, 10_000, seed=8)
        assert not np.array_equal(first.data_addresses, second.data_addresses)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ConfigurationError):
            synthesize_trace(get_workload("541.leela_r"), 0)
