"""Tests for distances, scoring, preprocessing and dendrogram rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist, squareform

from repro.errors import AnalysisError
from repro.stats.cluster import ClusterTree
from repro.stats.dendrogram import render_dendrogram
from repro.stats.distance import euclidean_distance_matrix
from repro.stats.preprocess import drop_constant_columns, standardize
from repro.stats.scoring import (
    geometric_mean,
    relative_error,
    weighted_geometric_mean,
)


class TestDistance:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(12, 4))
        ours = euclidean_distance_matrix(points)
        theirs = squareform(pdist(points))
        assert np.allclose(ours, theirs, atol=1e-10)

    def test_diagonal_zero_symmetric(self):
        points = np.random.default_rng(1).normal(size=(6, 3))
        distances = euclidean_distance_matrix(points)
        assert np.allclose(np.diag(distances), 0.0)
        assert np.allclose(distances, distances.T)

    def test_requires_2d(self):
        with pytest.raises(AnalysisError):
            euclidean_distance_matrix(np.zeros(4))

    @given(st.integers(2, 12), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_triangle_inequality(self, n, seed):
        points = np.random.default_rng(seed).normal(size=(n, 3))
        d = euclidean_distance_matrix(points)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestScoring:
    def test_geometric_mean_basic(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([5]) == pytest.approx(5.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(AnalysisError):
            geometric_mean([1.0, 0.0])
        with pytest.raises(AnalysisError):
            geometric_mean([])

    def test_weighted_geometric_mean(self):
        # weight 3 on value 8, weight 1 on value 1 -> (8^3)^(1/4) = 4.76..
        assert weighted_geometric_mean([8, 1], [3, 1]) == pytest.approx(
            8 ** 0.75
        )

    def test_weighted_equal_weights_match_unweighted(self):
        values = [1.5, 2.5, 4.0]
        assert weighted_geometric_mean(values, [1, 1, 1]) == pytest.approx(
            geometric_mean(values)
        )

    def test_weighted_validation(self):
        with pytest.raises(AnalysisError):
            weighted_geometric_mean([1, 2], [1])
        with pytest.raises(AnalysisError):
            weighted_geometric_mean([1, 2], [1, -1])

    def test_relative_error(self):
        assert relative_error(1.1, 1.0) == pytest.approx(0.1)
        with pytest.raises(AnalysisError):
            relative_error(1.0, 0.0)

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=2, max_size=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_geomean_between_min_and_max(self, values):
        mean = geometric_mean(values)
        assert min(values) - 1e-9 <= mean <= max(values) + 1e-9


class TestPreprocess:
    def test_standardize_zero_mean_unit_std(self):
        matrix = np.random.default_rng(0).normal(5, 3, size=(50, 4))
        standardized = standardize(matrix)
        assert np.allclose(standardized.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(standardized.std(axis=0), 1.0, atol=1e-9)

    def test_standardize_constant_column_zeroed(self):
        matrix = np.ones((10, 2))
        matrix[:, 1] = np.arange(10)
        standardized = standardize(matrix)
        assert np.allclose(standardized[:, 0], 0.0)

    def test_drop_constant_columns(self):
        matrix = np.ones((5, 3))
        matrix[:, 1] = np.arange(5)
        values, labels = drop_constant_columns(matrix, ("a", "b", "c"))
        assert values.shape == (5, 1)
        assert labels == ("b",)

    def test_drop_all_constant_raises(self):
        with pytest.raises(AnalysisError):
            drop_constant_columns(np.ones((5, 2)), ("a", "b"))

    def test_label_mismatch_raises(self):
        with pytest.raises(AnalysisError):
            drop_constant_columns(np.ones((5, 2)), ("a",))


class TestDendrogram:
    def make_tree(self):
        rng = np.random.default_rng(0)
        points = np.vstack([rng.normal(size=(4, 2)), 10 + rng.normal(size=(4, 2))])
        labels = [f"leaf{i}" for i in range(8)]
        return ClusterTree.from_points(points, labels)

    def test_all_leaves_rendered(self):
        tree = self.make_tree()
        text = render_dendrogram(tree).text
        for label in tree.labels:
            assert label in text

    def test_merge_heights_annotated(self):
        tree = self.make_tree()
        text = render_dendrogram(tree).text
        assert text.count("[d=") == tree.n_leaves - 1

    def test_str_returns_text(self):
        dendrogram = render_dendrogram(self.make_tree())
        assert str(dendrogram) == dendrogram.text

    def test_leaf_order_matches_rendering_order(self):
        tree = self.make_tree()
        text = render_dendrogram(tree).text
        positions = {label: text.index(label) for label in tree.labels}
        rendered_order = sorted(tree.labels, key=lambda l: positions[l])
        assert rendered_order == tree.leaf_order()
