"""Unit tests for the statistical workload-profile primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads.profiles import (
    BranchClass,
    BranchProfile,
    InstructionMix,
    ReuseComponent,
    ReuseProfile,
)


def simple_profile(median=100.0, sigma=1.0, cold=0.0):
    return ReuseProfile.from_tuples([(1.0, median, sigma)], cold)


class TestReuseComponent:
    def test_mu_is_log_median(self):
        component = ReuseComponent(1.0, 100.0, 1.0)
        assert component.mu == pytest.approx(math.log(100.0))

    @pytest.mark.parametrize(
        "weight,median,sigma",
        [(-0.1, 10, 1), (1.0, 0.0, 1), (1.0, 10, 0.0), (1.0, -5, 1)],
    )
    def test_invalid_parameters_rejected(self, weight, median, sigma):
        with pytest.raises(ConfigurationError):
            ReuseComponent(weight, median, sigma)


class TestReuseProfile:
    def test_requires_components(self):
        with pytest.raises(ConfigurationError):
            ReuseProfile(components=())

    def test_cold_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            simple_profile(cold=1.0)
        with pytest.raises(ConfigurationError):
            simple_profile(cold=-0.1)

    def test_zero_total_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            ReuseProfile.from_tuples([(0.0, 10.0, 1.0)])

    def test_normalized_weights_sum_to_warm_mass(self):
        profile = ReuseProfile.from_tuples(
            [(2.0, 10, 1), (6.0, 100, 1)], cold_fraction=0.2
        )
        weights = profile.normalized_weights
        assert weights.sum() == pytest.approx(0.8)
        assert weights[1] == pytest.approx(3 * weights[0])

    def test_miss_ratio_zero_capacity_is_one(self):
        assert simple_profile().miss_ratio(0.0) == 1.0

    def test_miss_ratio_monotone_in_capacity(self):
        profile = simple_profile(median=500.0, sigma=1.2, cold=0.01)
        capacities = [8, 64, 512, 4096, 32768]
        ratios = [profile.miss_ratio(c) for c in capacities]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_miss_ratio_floors_at_cold_fraction(self):
        profile = simple_profile(median=10.0, cold=0.05)
        assert profile.miss_ratio(1e9) == pytest.approx(0.05, abs=1e-6)

    def test_half_mass_at_median_fully_associative(self):
        profile = simple_profile(median=100.0)
        assert profile.miss_ratio(100.0) == pytest.approx(0.5, abs=0.02)

    def test_set_associative_missier_than_fully_associative(self):
        profile = simple_profile(median=400.0, sigma=0.8)
        fully = profile.miss_ratio(512)
        set_assoc = profile.miss_ratio(512, associativity=2)
        assert set_assoc >= fully

    def test_high_associativity_approaches_fully_associative(self):
        profile = simple_profile(median=300.0, sigma=0.8)
        fully = profile.miss_ratio(512)
        assoc = profile.miss_ratio(512, associativity=256)
        assert assoc == pytest.approx(fully, abs=0.05)

    def test_scaled_shifts_distances(self):
        profile = simple_profile(median=100.0)
        scaled = profile.scaled(4.0)
        assert scaled.components[0].median == pytest.approx(400.0)
        assert scaled.miss_ratio(512) > profile.miss_ratio(512)

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            simple_profile().scaled(0.0)

    def test_with_cold_fraction(self):
        profile = simple_profile().with_cold_fraction(0.1)
        assert profile.cold_fraction == 0.1

    def test_sample_shapes_and_cold_inf(self):
        profile = simple_profile(cold=0.5)
        rng = np.random.default_rng(0)
        distances = profile.sample(rng, 4000)
        assert distances.shape == (4000,)
        cold_share = np.isinf(distances).mean()
        assert cold_share == pytest.approx(0.5, abs=0.05)

    def test_sample_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_profile().sample(np.random.default_rng(0), -1)

    def test_sampled_miss_ratio_matches_analytic(self):
        profile = ReuseProfile.from_tuples(
            [(0.7, 50, 1.0), (0.3, 5000, 1.2)], cold_fraction=0.02
        )
        rng = np.random.default_rng(7)
        distances = profile.sample(rng, 60_000)
        finite = np.isfinite(distances)
        empirical = 1.0 - (distances[finite] < 512).sum() / distances.size
        assert empirical == pytest.approx(profile.miss_ratio(512), abs=0.02)

    @given(
        median=st.floats(2.0, 1e5),
        sigma=st.floats(0.3, 2.0),
        capacity=st.integers(4, 1 << 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_miss_ratio_always_a_probability(self, median, sigma, capacity):
        profile = simple_profile(median=median, sigma=sigma, cold=0.01)
        ratio = profile.miss_ratio(capacity, associativity=8)
        assert 0.0 <= ratio <= 1.0

    @given(st.floats(1.1, 16.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_up_never_reduces_misses(self, factor):
        profile = simple_profile(median=200.0, sigma=1.0, cold=0.005)
        assert profile.scaled(factor).miss_ratio(512) >= profile.miss_ratio(512) - 1e-9


class TestBranchClass:
    def test_static_mispredict_is_one_minus_bias(self):
        cls = BranchClass(1.0, 0.9, pattern=0.5)
        assert cls.mispredict_rate(0.0) == pytest.approx(0.1)

    def test_perfect_pattern_predictor_removes_all(self):
        cls = BranchClass(1.0, 0.9, pattern=1.0)
        assert cls.mispredict_rate(1.0) == pytest.approx(0.0)

    def test_bias_bounds(self):
        with pytest.raises(ConfigurationError):
            BranchClass(1.0, 0.4)
        with pytest.raises(ConfigurationError):
            BranchClass(1.0, 1.1)

    def test_strength_bounds(self):
        with pytest.raises(ConfigurationError):
            BranchClass(1.0, 0.9).mispredict_rate(1.5)

    @given(
        bias=st.floats(0.5, 1.0),
        pattern=st.floats(0.0, 1.0),
        strength=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_stronger_predictors_never_worse(self, bias, pattern, strength):
        cls = BranchClass(1.0, bias, pattern)
        assert cls.mispredict_rate(strength) <= cls.mispredict_rate(0.0) + 1e-12


def branch_profile(taken=0.6, sites=512):
    return BranchProfile.from_tuples(
        taken,
        [(0.6, 0.98, 0.9), (0.3, 0.88, 0.5), (0.1, 0.68, 0.2)],
        static_branches=sites,
    )


class TestBranchProfile:
    def test_requires_classes(self):
        with pytest.raises(ConfigurationError):
            BranchProfile(taken_fraction=0.5, classes=())

    def test_taken_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            branch_profile(taken=1.5)

    def test_mispredict_rate_decreases_with_strength(self):
        profile = branch_profile()
        weak = profile.mispredict_rate(0.2)
        strong = profile.mispredict_rate(0.95)
        assert strong < weak

    def test_aliasing_adds_mispredictions(self):
        profile = branch_profile(sites=4096)
        clean = profile.mispredict_rate(0.9, table_entries=0)
        aliased = profile.mispredict_rate(0.9, table_entries=1024)
        assert aliased > clean

    def test_bigger_tables_reduce_aliasing(self):
        profile = branch_profile(sites=4096)
        small = profile.mispredict_rate(0.9, table_entries=1024)
        big = profile.mispredict_rate(0.9, table_entries=65536)
        assert big < small

    def test_mispredict_rate_capped_at_half(self):
        profile = BranchProfile.from_tuples(0.5, [(1.0, 0.5, 0.0)], 10_000)
        assert profile.mispredict_rate(0.0, table_entries=16) <= 0.5

    def test_static_mispredict_rate_matches_zero_strength(self):
        profile = branch_profile()
        assert profile.static_mispredict_rate() == pytest.approx(
            profile.mispredict_rate(0.0, table_entries=0)
        )

    def test_sample_outcomes_taken_fraction(self):
        profile = branch_profile(taken=0.7, sites=256)
        rng = np.random.default_rng(3)
        _, taken = profile.sample_outcomes(rng, 50_000)
        assert taken.mean() == pytest.approx(0.7, abs=0.06)

    def test_sample_outcomes_sites_in_range(self):
        profile = branch_profile(sites=128)
        rng = np.random.default_rng(3)
        sites, _ = profile.sample_outcomes(rng, 5000)
        assert sites.min() >= 0
        assert sites.max() < 128

    def test_sample_minority_rate_tracks_bias(self):
        profile = BranchProfile.from_tuples(0.6, [(1.0, 0.9, 0.0)], 64)
        rng = np.random.default_rng(5)
        sites, taken = profile.sample_outcomes(rng, 40_000)
        # per-site majority agreement should be ~bias
        agreement = []
        for site in range(64):
            mask = sites == site
            if mask.sum() < 50:
                continue
            share = taken[mask].mean()
            agreement.append(max(share, 1 - share))
        assert np.mean(agreement) == pytest.approx(0.9, abs=0.05)


class TestInstructionMix:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            InstructionMix(load=0.5, store=0.4, branch=0.3, int_alu=0.2, fp=0.1)

    def test_from_percentages_computes_remainder(self):
        mix = InstructionMix.from_percentages(20, 10, 15, fp=5)
        assert mix.int_alu == pytest.approx(0.5)
        assert mix.memory == pytest.approx(0.3)
        assert mix.compute == pytest.approx(0.55)

    def test_from_percentages_rejects_over_100(self):
        with pytest.raises(ConfigurationError):
            InstructionMix.from_percentages(60, 30, 20)

    def test_as_dict_round_trip(self):
        mix = InstructionMix.from_percentages(20, 10, 15, fp=5, simd=0.02)
        data = mix.as_dict()
        assert data["load"] == pytest.approx(0.2)
        assert data["simd"] == pytest.approx(0.02)

    @given(
        load=st.floats(0, 40),
        store=st.floats(0, 25),
        branch=st.floats(0, 30),
    )
    @settings(max_examples=50, deadline=None)
    def test_from_percentages_always_sums_to_one(self, load, store, branch):
        mix = InstructionMix.from_percentages(load, store, branch)
        total = mix.load + mix.store + mix.branch + mix.int_alu + mix.fp + mix.other
        assert total == pytest.approx(1.0)
