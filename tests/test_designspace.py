"""Tests for the design-space exploration extension."""

import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro.core.designspace import (
    DesignVariant,
    _average_ranks,
    _spearman_rho,
    evaluate_design_space,
    standard_design_space,
    subset_design_fidelity,
)
from repro.errors import AnalysisError, ConfigurationError
from repro.uarch.machine import get_machine


@pytest.fixture(scope="module")
def variants():
    return standard_design_space()


@pytest.fixture(scope="module")
def evaluation(variants, profiler):
    return evaluate_design_space(
        ["505.mcf_r", "541.leela_r", "525.x264_r"], variants, profiler=profiler
    )


class TestStandardDesignSpace:
    def test_baseline_first(self, variants):
        assert variants[0].name == "baseline"

    def test_variant_names_unique(self, variants):
        names = [v.name for v in variants]
        assert len(names) == len(set(names))

    def test_machine_names_unique(self, variants):
        names = [v.machine.name for v in variants]
        assert len(names) == len(set(names))

    def test_llc_scaling(self, variants):
        base = get_machine("skylake-i7-6700")
        llc2x = next(v for v in variants if v.name == "llc-2x")
        assert llc2x.machine.l3.size_bytes == 2 * base.l3.size_bytes

    def test_no_l3_machine_skips_llc_variants(self):
        variants = standard_design_space("xeon-e5405")
        names = {v.name for v in variants}
        assert "llc-2x" not in names
        assert "l2-2x" in names

    def test_geometry_stays_valid(self, variants):
        for variant in variants:
            for cache in (variant.machine.l1d, variant.machine.l2):
                assert cache.size_bytes % (
                    cache.line_bytes * cache.associativity
                ) == 0


class TestEvaluateDesignSpace:
    def test_all_variants_scored(self, evaluation, variants):
        assert set(evaluation.speedups) == {
            v.name for v in variants if v.name != "baseline"
        }

    def test_speedups_positive(self, evaluation):
        assert all(v > 0 for v in evaluation.speedups.values())

    def test_improvements_never_slow_things_down(self, evaluation):
        for name in ("llc-2x", "l2-2x", "bigger-bp", "fast-mem", "stlb-4x"):
            assert evaluation.speedups[name] >= 0.999, name

    def test_llc_half_hurts_memory_bound(self, evaluation):
        assert evaluation.per_benchmark["llc-half"]["505.mcf_r"] <= 1.0

    def test_bigger_bp_helps_leela_most(self, evaluation):
        gains = evaluation.per_benchmark["bigger-bp"]
        assert gains["541.leela_r"] >= gains["525.x264_r"]

    def test_fast_mem_helps_mcf_most(self, evaluation):
        gains = evaluation.per_benchmark["fast-mem"]
        assert gains["505.mcf_r"] > gains["525.x264_r"]

    def test_ranking_and_best(self, evaluation):
        ranking = evaluation.ranking()
        assert evaluation.best() == ranking[0]
        values = [evaluation.speedups[n] for n in ranking]
        assert values == sorted(values, reverse=True)

    def test_requires_baseline_first(self, profiler):
        machine = get_machine("skylake-i7-6700")
        with pytest.raises(ConfigurationError):
            evaluate_design_space(
                ["505.mcf_r"], [DesignVariant("llc-2x", machine)],
                profiler=profiler,
            )

    def test_requires_workloads(self, variants, profiler):
        with pytest.raises(AnalysisError):
            evaluate_design_space([], variants, profiler=profiler)


class TestSubsetDesignFidelity:
    def test_full_subset_is_perfectly_faithful(self, profiler):
        names = ["505.mcf_r", "541.leela_r", "525.x264_r"]
        fidelity = subset_design_fidelity(names, names, profiler=profiler)
        assert fidelity.rank_correlation == pytest.approx(1.0)
        assert fidelity.best_choice_agrees
        assert fidelity.max_speedup_gap == pytest.approx(0.0)

    def test_representative_subset_agrees_on_winner(self, profiler):
        from repro.core.subsetting import subset_suite
        from repro.workloads.spec import Suite, workloads_in_suite

        names = [s.name for s in workloads_in_suite(Suite.SPEC2017_RATE_INT)]
        subset = subset_suite(Suite.SPEC2017_RATE_INT, 3)
        fidelity = subset_design_fidelity(
            names, list(subset.subset), profiler=profiler
        )
        assert fidelity.best_choice_agrees

    def test_subset_must_be_contained(self, profiler):
        with pytest.raises(AnalysisError):
            subset_design_fidelity(
                ["505.mcf_r"], ["999.ghost"], profiler=profiler
            )


class TestSpearmanRho:
    """The numpy rank correlation against ``scipy.stats.spearmanr``."""

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_scipy_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(200):
            n = int(rng.integers(2, 25))
            a = rng.integers(0, 5, n).astype(float)
            b = rng.normal(size=n) if seed % 2 else rng.integers(0, 3, n) * 1.5
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # scipy's constant-input warning
                want = spearmanr(a, b)[0]
            got = _spearman_rho(a, b)
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_constant_input_has_no_correlation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(_spearman_rho(np.ones(4), np.arange(4.0)))
            assert np.isnan(_spearman_rho(np.arange(3.0), np.full(3, 2.0)))

    def test_average_ranks(self):
        a = np.array([3.0, 1.0, 3.0, 2.0, 3.0])
        b = np.array([10.0, 0.0, 10.0, 5.0, 10.0])
        np.testing.assert_array_equal(
            _average_ranks(a), [4.0, 1.0, 4.0, 2.0, 4.0]
        )
        assert _spearman_rho(a, b) == pytest.approx(1.0, abs=1e-15)
        assert _spearman_rho(a, -b) == pytest.approx(-1.0, abs=1e-15)
