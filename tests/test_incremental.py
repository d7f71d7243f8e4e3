"""Tests for the incremental statistics engine (stats/incremental.py).

The load-bearing guarantees:

* the exact fit *is* ``fit_pca`` (bit-comparable by construction);
* randomized append sequences stay within the documented tolerance of
  a batch refit while the drift bound holds, and the bound trips the
  exact-refactorization fallback before they could leave it;
* a forced refactorization restores bit-comparable results;
* seeded k-means and representative re-selection only touch what
  changed.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.parity import stable_seed
from repro import obs
from repro.errors import AnalysisError
from repro.stats.incremental import (
    DRIFT_TOLERANCE,
    SCORE_TOLERANCE,
    IncrementalKMeans,
    IncrementalPca,
    StreamingMoments,
    reselect_representatives,
    resolve_analysis_mode,
)
from repro.stats.kmeans import kmeans
from repro.stats.pca import fit_pca


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()


def _clustered_matrix(
    rng: np.random.Generator, n: int, d: int, centers: int = 4
) -> np.ndarray:
    """Rows drawn around a few well-separated centers (cluster shape)."""
    base = rng.normal(size=(centers, d)) * 3.0
    rows = [
        base[i % centers] + rng.normal(size=d) * 0.5 for i in range(n)
    ]
    return np.stack(rows)


# ----------------------------------------------------------------------
# mode resolution
# ----------------------------------------------------------------------


class TestResolveAnalysisMode:
    def test_defaults_to_incremental(self, monkeypatch):
        # The only mode: a stale REPRO_ANALYSIS selects nothing.
        monkeypatch.setenv("REPRO_ANALYSIS", "batch")
        assert resolve_analysis_mode() == "incremental"
        assert resolve_analysis_mode(None) == "incremental"


# ----------------------------------------------------------------------
# streaming moments
# ----------------------------------------------------------------------


class TestStreamingMoments:
    def test_matches_numpy_population_moments(self):
        rng = np.random.default_rng(stable_seed("moments"))
        matrix = rng.normal(size=(50, 7)) * rng.uniform(0.1, 9.0, size=7)
        moments = StreamingMoments(7)
        for row in matrix:
            moments.update(row)
        assert moments.n == 50
        np.testing.assert_allclose(moments.mean, matrix.mean(axis=0))
        np.testing.assert_allclose(
            moments.variance, matrix.var(axis=0), atol=1e-12
        )

    def test_from_matrix_is_the_exact_resync(self):
        rng = np.random.default_rng(stable_seed("moments", "resync"))
        matrix = rng.normal(size=(30, 5))
        moments = StreamingMoments.from_matrix(matrix)
        assert moments.n == 30
        assert (moments.mean == matrix.mean(axis=0)).all()

    def test_zero_variance_features_standardize_like_batch(self):
        matrix = np.column_stack(
            [np.arange(10, dtype=float), np.full(10, 3.0)]
        )
        moments = StreamingMoments.from_matrix(matrix)
        assert moments.safe_std[1] == 1.0
        standardized = moments.standardize(matrix)
        assert (standardized[:, 1] == 0.0).all()

    def test_rejects_bad_shapes(self):
        with pytest.raises(AnalysisError):
            StreamingMoments(0)
        moments = StreamingMoments(3)
        with pytest.raises(AnalysisError, match="expected a row"):
            moments.update(np.zeros(4))


# ----------------------------------------------------------------------
# incremental PCA
# ----------------------------------------------------------------------


class TestIncrementalPca:
    def test_fit_is_fit_pca_bit_for_bit(self):
        rng = np.random.default_rng(stable_seed("ipca", "fit"))
        matrix = _clustered_matrix(rng, 40, 12)
        labels = tuple(f"f{i}" for i in range(12))
        engine = IncrementalPca(feature_labels=labels)
        result = engine.refactorize(matrix)
        batch = fit_pca(matrix, labels)
        assert (result.eigenvalues == batch.eigenvalues).all()
        assert (result.loadings == batch.loadings).all()
        assert (result.scores == batch.scores).all()
        assert result.kaiser_components == batch.kaiser_components
        assert engine.drift == 0.0

    def test_append_before_fit_raises(self):
        engine = IncrementalPca()
        with pytest.raises(AnalysisError, match="append before fit"):
            engine.append(np.zeros(3))

    def test_append_rejects_wrong_width(self):
        engine = IncrementalPca()
        engine.refactorize(np.random.default_rng(0).normal(size=(10, 4)))
        with pytest.raises(AnalysisError, match="expected a row"):
            engine.append(np.zeros(5))

    def test_negative_tolerance_rejected(self):
        with pytest.raises(AnalysisError, match="tolerance"):
            IncrementalPca(tolerance=-1.0)

    @pytest.mark.parametrize("case", range(5))
    def test_randomized_appends_stay_within_documented_tolerance(self, case):
        """Satellite: randomized append sequences vs the batch fit.

        Retained eigenvalues, loadings and scores must agree with a
        fresh ``fit_pca`` within SCORE_TOLERANCE as long as the engine
        refactorizes whenever its drift bound trips.
        """
        rng = np.random.default_rng(stable_seed("ipca", "random", case))
        n0 = int(rng.integers(80, 200))
        d = int(rng.integers(10, 50))
        appends = int(rng.integers(10, 25))
        matrix = _clustered_matrix(rng, n0, d, centers=int(rng.integers(3, 6)))
        engine = IncrementalPca()
        engine.refactorize(matrix)
        rows = [row for row in matrix]
        for _ in range(appends):
            row = _clustered_matrix(rng, 1, d)[0]
            rows.append(row)
            engine.append(row)
            assert engine.drift >= 0.0
            if engine.needs_refactorization:
                engine.refactorize(np.stack(rows))
                assert engine.drift == 0.0
            else:
                assert engine.drift <= engine.tolerance
        full = np.stack(rows)
        batch = fit_pca(full)
        approx = engine.result(full)
        k = batch.kaiser_components
        assert approx.kaiser_components == k
        assert np.abs(
            approx.eigenvalues[:k] - batch.eigenvalues[:k]
        ).max() < SCORE_TOLERANCE
        # Loadings/scores are sign-fixed per component; compare
        # magnitudes so a legal reflection cannot fail the test.
        assert np.abs(
            np.abs(approx.loadings[:k]) - np.abs(batch.loadings[:k])
        ).max() < SCORE_TOLERANCE
        assert np.abs(
            np.abs(approx.retained_scores()) - np.abs(batch.retained_scores())
        ).max() < SCORE_TOLERANCE

    def test_fallback_triggers_and_restores_bit_comparable_results(self):
        """Satellite: the exactness fallback under heavy perturbation.

        With a small population every append is a large correlation
        perturbation, so the measured drift must exceed the tolerance
        (triggering ``needs_refactorization``), and refactorizing must
        restore results bit-comparable with ``fit_pca``.
        """
        rng = np.random.default_rng(stable_seed("ipca", "fallback"))
        matrix = _clustered_matrix(rng, 12, 10)
        engine = IncrementalPca()
        engine.refactorize(matrix)
        rows = [row for row in matrix]
        tripped = False
        for _ in range(8):
            row = rng.normal(size=10) * 5.0  # far from the fitted blobs
            rows.append(row)
            engine.append(row)
            if engine.needs_refactorization:
                tripped = True
                break
        assert tripped, "drift bound never tripped under heavy perturbation"
        full = np.stack(rows)
        exact = engine.refactorize(full)
        batch = fit_pca(full)
        assert (exact.eigenvalues == batch.eigenvalues).all()
        assert (exact.loadings == batch.loadings).all()
        assert (exact.scores == batch.scores).all()
        assert exact.kaiser_components == batch.kaiser_components
        assert engine.drift == 0.0
        assert engine.result(full) is exact  # cached verbatim

    def test_refactorization_counter_and_gauge(self):
        obs.enable()
        obs.metrics.reset()
        rng = np.random.default_rng(stable_seed("ipca", "obs"))
        matrix = _clustered_matrix(rng, 20, 6)
        engine = IncrementalPca()
        engine.refactorize(matrix)
        engine.append(rng.normal(size=6))
        snapshot = obs.metrics.snapshot()
        assert snapshot["counters"]["analysis.refactorizations"] == 1.0
        assert snapshot["counters"]["analysis.rows_appended"] == 1.0
        assert "analysis.drift" in snapshot["gauges"]

    def test_transform_matches_result_scores(self):
        rng = np.random.default_rng(stable_seed("ipca", "transform"))
        matrix = _clustered_matrix(rng, 30, 8)
        engine = IncrementalPca()
        result = engine.refactorize(matrix)
        coords = engine.transform(matrix[:3], result.kaiser_components)
        np.testing.assert_allclose(
            coords, result.retained_scores()[:3], atol=1e-9
        )

    def test_result_requires_the_full_matrix(self):
        rng = np.random.default_rng(stable_seed("ipca", "shape"))
        matrix = _clustered_matrix(rng, 20, 5)
        engine = IncrementalPca()
        engine.refactorize(matrix)
        engine.append(rng.normal(size=5))
        with pytest.raises(AnalysisError, match="full"):
            engine.result(matrix)  # one row short now


# ----------------------------------------------------------------------
# incremental k-means
# ----------------------------------------------------------------------


class TestIncrementalKMeans:
    def test_fit_is_the_batch_fit(self):
        rng = np.random.default_rng(stable_seed("ikm", "fit"))
        points = _clustered_matrix(rng, 30, 3, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        result = engine.fit(points)
        batch = kmeans(points, 3, seed=2017)
        assert (result.assignment == batch.assignment).all()
        assert result.inertia == batch.inertia

    def test_update_without_fit_falls_back_to_batch(self):
        rng = np.random.default_rng(stable_seed("ikm", "cold"))
        points = _clustered_matrix(rng, 24, 3, centers=3)
        engine = IncrementalKMeans(3)
        result, changed = engine.update(points)
        assert changed == frozenset(range(result.k))

    def test_appended_point_joins_a_cluster_and_flags_it(self):
        rng = np.random.default_rng(stable_seed("ikm", "append"))
        points = _clustered_matrix(rng, 30, 2, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        seeded = engine.fit(points)
        # Drop the new point on top of cluster 0's centroid: only that
        # cluster's membership can change.
        new_point = seeded.centroids[0]
        grown = np.vstack([points, new_point])
        result, changed = engine.update(grown)
        assert result.assignment.shape == (31,)
        assert int(result.assignment[30]) in changed
        stable = set(range(result.k)) - set(changed)
        for cluster in stable:
            before = set(np.nonzero(seeded.assignment == cluster)[0])
            after = set(np.nonzero(result.assignment == cluster)[0])
            assert before == after

    def test_no_change_reports_no_changed_clusters(self):
        rng = np.random.default_rng(stable_seed("ikm", "stable"))
        points = _clustered_matrix(rng, 30, 2, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        engine.fit(points)
        _, changed = engine.update(points)
        assert changed == frozenset()

    def test_shrinking_population_rejected(self):
        rng = np.random.default_rng(stable_seed("ikm", "shrink"))
        points = _clustered_matrix(rng, 20, 2)
        engine = IncrementalKMeans(3)
        engine.fit(points)
        with pytest.raises(AnalysisError, match="append-only"):
            engine.update(points[:10])

    def test_dimension_change_reprojects_the_seed(self):
        rng = np.random.default_rng(stable_seed("ikm", "dims"))
        points = _clustered_matrix(rng, 24, 4, centers=3)
        engine = IncrementalKMeans(3, seed=2017)
        engine.fit(points)
        wider = np.hstack([points, rng.normal(size=(24, 1)) * 0.01])
        result, _ = engine.update(wider)
        assert result.centroids.shape == (3, 5)

    def test_invalid_k_rejected(self):
        with pytest.raises(AnalysisError):
            IncrementalKMeans(0)


# ----------------------------------------------------------------------
# representative re-selection
# ----------------------------------------------------------------------


class TestReselectRepresentatives:
    def test_full_rescan_matches_batch_representatives(self):
        rng = np.random.default_rng(stable_seed("reps", "full"))
        points = _clustered_matrix(rng, 25, 3, centers=3)
        labels = [f"w{i:02d}" for i in range(25)]
        result = kmeans(points, 3, seed=2017)
        chosen, _ = reselect_representatives(points, result, labels)
        assert chosen == result.representatives(points, labels)

    def test_unchanged_clusters_reuse_the_cache(self):
        rng = np.random.default_rng(stable_seed("reps", "cache"))
        points = _clustered_matrix(rng, 25, 3, centers=3)
        labels = [f"w{i:02d}" for i in range(25)]
        result = kmeans(points, 3, seed=2017)
        _, cache = reselect_representatives(points, result, labels)
        obs.enable()
        obs.metrics.reset()
        poisoned = dict(cache)
        victim = next(iter(poisoned))
        poisoned[victim] = "sentinel"
        chosen, refreshed = reselect_representatives(
            points, result, labels,
            previous=poisoned, changed=frozenset(),
        )
        # Nothing changed, so the sentinel must have been trusted (the
        # cached path) and no cluster re-scored.
        assert "sentinel" in chosen
        assert refreshed[victim] == "sentinel"
        counters = obs.metrics.snapshot()["counters"]
        assert counters.get("analysis.clusters_rescored", 0.0) == 0.0

    def test_changed_clusters_are_rescored(self):
        rng = np.random.default_rng(stable_seed("reps", "changed"))
        points = _clustered_matrix(rng, 25, 3, centers=3)
        labels = [f"w{i:02d}" for i in range(25)]
        result = kmeans(points, 3, seed=2017)
        _, cache = reselect_representatives(points, result, labels)
        victim = next(iter(cache))
        poisoned = {**cache, victim: "sentinel"}
        chosen, refreshed = reselect_representatives(
            points, result, labels,
            previous=poisoned, changed=frozenset({victim}),
        )
        assert refreshed[victim] == cache[victim]  # re-scored, not trusted
        assert "sentinel" not in chosen

    def test_label_count_mismatch_rejected(self):
        points = np.zeros((4, 2))
        result = kmeans(points + np.arange(4)[:, None], 2, seed=1)
        with pytest.raises(AnalysisError, match="labels"):
            reselect_representatives(points, result, ["a", "b"])


# ----------------------------------------------------------------------
# the documented constants
# ----------------------------------------------------------------------


def test_tolerances_are_sane():
    assert 0.0 < DRIFT_TOLERANCE < SCORE_TOLERANCE < 1.0
