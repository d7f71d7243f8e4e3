"""Tests for similarity, subsetting, the score database and validation."""

import numpy as np
import pytest

from repro.core.similarity import analyze_similarity
from repro.core.specdb import (
    COMMERCIAL_SYSTEMS,
    CommercialSystem,
    published_speedups,
)
from repro.core.subsetting import PAPER_SUBSETS, select_subset, subset_suite
from repro.core.validation import random_subset_errors, validate_subset
from repro.errors import AnalysisError
from repro.perf.counters import BRANCH_METRICS
from repro.workloads.spec import Suite, workloads_in_suite

RATE_INT = Suite.SPEC2017_RATE_INT


class TestAnalyzeSimilarity:
    def test_result_structure(self, suite_results):
        result = suite_results[RATE_INT]
        assert result.scores.shape[0] == 10
        assert result.distances.shape == (10, 10)
        assert result.tree.n_leaves == 10
        assert 0.5 < result.variance_covered <= 1.0

    def test_kaiser_default(self, suite_results):
        result = suite_results[RATE_INT]
        assert result.n_components == result.pca.kaiser_components

    def test_explicit_component_count(self, profiler):
        names = [s.name for s in workloads_in_suite(RATE_INT)]
        result = analyze_similarity(names, n_components=3, profiler=profiler)
        assert result.scores.shape[1] == 3

    def test_metric_restriction(self, profiler):
        names = [s.name for s in workloads_in_suite(RATE_INT)]
        result = analyze_similarity(
            names, metrics=BRANCH_METRICS, profiler=profiler
        )
        assert result.matrix.n_features == len(BRANCH_METRICS) * 7

    def test_distance_symmetric_and_self_zero(self, suite_results):
        result = suite_results[RATE_INT]
        a, b = result.workloads[0], result.workloads[3]
        assert result.distance_between(a, b) == pytest.approx(
            result.distance_between(b, a)
        )
        assert result.distance_between(a, a) == 0.0

    def test_distance_unknown_raises(self, suite_results):
        with pytest.raises(AnalysisError):
            suite_results[RATE_INT].distance_between("a", "b")

    def test_dendrogram_contains_all_leaves(self, suite_results):
        text = suite_results[RATE_INT].dendrogram().text
        for name in suite_results[RATE_INT].workloads:
            assert name in text

    def test_representatives_counts(self, suite_results):
        result = suite_results[RATE_INT]
        for k in (1, 3, 5):
            assert len(result.representatives_for(k)) == k


class TestSubsetting:
    def test_select_subset_structure(self, suite_results):
        subset = select_subset(suite_results[RATE_INT], 3)
        assert subset.k == 3
        assert len(subset.clusters) == 3
        assert sum(len(c) for c in subset.clusters) == 10
        for representative, cluster in zip(subset.subset, subset.clusters):
            assert representative in cluster

    def test_threshold_separates_k_clusters(self, suite_results):
        result = suite_results[RATE_INT]
        subset = select_subset(result, 3)
        clusters = result.tree.clusters_at(subset.threshold)
        assert len(clusters) == 3

    def test_profiles_into_the_callers_profiler(self):
        from repro.perf.profiler import Profiler
        from repro.uarch.machine import paper_machines

        profiler = Profiler()
        first = subset_suite(RATE_INT, k=3, profiler=profiler)
        pairs = len(paper_machines()) * len(workloads_in_suite(RATE_INT))
        assert profiler.cache_info().misses == pairs
        second = subset_suite(RATE_INT, k=3, profiler=profiler)
        info = profiler.cache_info()
        assert info.misses == pairs
        assert info.hits == pairs
        assert second.subset == first.subset

    def test_time_reduction_in_paper_band(self):
        """Table V reports 4.5-6.3x; our models reproduce that order."""
        for suite in PAPER_SUBSETS:
            subset = subset_suite(suite, k=3)
            assert 2.5 <= subset.time_reduction <= 10.0, suite

    def test_k_bounds(self, suite_results):
        with pytest.raises(AnalysisError):
            select_subset(suite_results[RATE_INT], 0)
        with pytest.raises(AnalysisError):
            select_subset(suite_results[RATE_INT], 99)

    def test_k_equals_n_gives_everything(self, suite_results):
        subset = select_subset(suite_results[RATE_INT], 10)
        assert sorted(subset.subset) == sorted(suite_results[RATE_INT].workloads)
        assert subset.time_reduction == pytest.approx(1.0)

    def test_paper_subset_members_exist(self):
        from repro.workloads.spec import get_workload

        for suite, names in PAPER_SUBSETS.items():
            for name in names:
                assert get_workload(name).suite == suite


class TestSpecDb:
    def test_every_system_scores_every_benchmark(self, profiler):
        names = [s.name for s in workloads_in_suite(RATE_INT)]
        db = published_speedups(names, profiler=profiler)
        assert len(db) == len(COMMERCIAL_SYSTEMS)
        for speedups in db.values():
            assert sorted(speedups) == sorted(names)
            assert all(v > 0 for v in speedups.values())

    def test_speedups_deterministic(self, profiler):
        names = [s.name for s in workloads_in_suite(RATE_INT)]
        first = published_speedups(names, profiler=profiler)
        second = published_speedups(names, profiler=profiler)
        assert first == second

    def test_memory_bound_benchmarks_suffer_on_saturated_systems(self, profiler):
        db = published_speedups(["505.mcf_r", "525.x264_r"], profiler=profiler)
        saturated = db["sys-f-entry-server"]
        # x264 (compute) retains much more of its speedup than mcf
        # (memory-bound) on a bandwidth-starved box.
        assert saturated["525.x264_r"] > saturated["505.mcf_r"]

    def test_cache_heavy_system_helps_cache_bound_benchmarks(self, profiler):
        db = published_speedups(["520.omnetpp_r", "548.exchange2_r"], profiler=profiler)
        gain = {
            b: db["sys-c-bigcache-server"][b] / db["sys-f-entry-server"][b]
            for b in ("520.omnetpp_r", "548.exchange2_r")
        }
        assert gain["520.omnetpp_r"] > gain["548.exchange2_r"]

    def test_zero_noise_system(self):
        system = CommercialSystem("det", frequency_ratio=1.0, noise=0.0)
        assert system._noise_factor("x") == 1.0

    def test_validation_of_system_parameters(self):
        with pytest.raises(AnalysisError):
            CommercialSystem("bad", frequency_ratio=0.0)
        with pytest.raises(AnalysisError):
            CommercialSystem("bad", frequency_ratio=1.0, noise=0.9)
        with pytest.raises(AnalysisError):
            CommercialSystem("bad", frequency_ratio=1.0, bandwidth_saturation=-1)


class TestValidation:
    def test_validation_structure(self, profiler):
        subset = subset_suite(RATE_INT, k=3)
        result = validate_subset(RATE_INT, subset.subset, profiler=profiler)
        assert len(result.systems) == len(COMMERCIAL_SYSTEMS)
        assert 0.0 <= result.mean_error <= result.max_error
        assert result.accuracy == pytest.approx(1.0 - result.mean_error)

    def test_identified_subsets_reach_paper_accuracy(self, profiler):
        """The paper's headline: >= 93% accuracy from ~1/3 of the suite
        (mean error over systems <= ~11% per sub-suite)."""
        for suite in PAPER_SUBSETS:
            subset = subset_suite(suite, k=3)
            weights = [len(c) for c in subset.clusters]
            result = validate_subset(
                suite, subset.subset, profiler=profiler, weights=weights
            )
            assert result.mean_error <= 0.12, suite

    def test_full_suite_subset_has_zero_error(self, profiler):
        names = [s.name for s in workloads_in_suite(RATE_INT)]
        result = validate_subset(RATE_INT, names, profiler=profiler)
        assert result.mean_error == pytest.approx(0.0, abs=1e-9)

    def test_unknown_subset_member_rejected(self, profiler):
        with pytest.raises(AnalysisError):
            validate_subset(RATE_INT, ["638.imagick_s"], profiler=profiler)

    def test_weight_length_checked(self, profiler):
        with pytest.raises(AnalysisError):
            validate_subset(
                RATE_INT, ["505.mcf_r"], weights=[1, 2], profiler=profiler
            )

    def test_random_subsets_deterministic_per_seed(self, profiler):
        first = random_subset_errors(RATE_INT, 3, n_sets=2, seed=11, profiler=profiler)
        second = random_subset_errors(RATE_INT, 3, n_sets=2, seed=11, profiler=profiler)
        assert [r.subset for r in first] == [r.subset for r in second]

    def test_random_subsets_size_checked(self, profiler):
        with pytest.raises(AnalysisError):
            random_subset_errors(RATE_INT, 99, profiler=profiler)

    def test_identified_beats_average_random_on_int(self, profiler):
        """Table VI's qualitative claim for the INT suites."""
        subset = subset_suite(RATE_INT, k=3)
        weights = [len(c) for c in subset.clusters]
        identified = validate_subset(
            RATE_INT, subset.subset, profiler=profiler, weights=weights
        ).mean_error
        random_mean = np.mean(
            [
                r.mean_error
                for r in random_subset_errors(
                    RATE_INT, 3, n_sets=10, seed=3, profiler=profiler
                )
            ]
        )
        assert identified < random_mean
