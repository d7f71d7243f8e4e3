"""Differential tests: the numpy 2-D hull against qhull.

:mod:`repro.stats.hull` replaces ``scipy.spatial.ConvexHull`` (areas)
and ``Delaunay.find_simplex`` (membership) in the Figure 11 and 12
analyses.  Areas must agree to 1e-12 relative; membership must agree
point for point, edges and vertices counting as inside.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Delaunay, QhullError

from repro.stats.hull import convex_hull, hull_area, inside_hull


def qhull_inside(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    return Delaunay(cloud).find_simplex(points) >= 0


def grid_cloud(rng: np.random.Generator, n: int) -> np.ndarray:
    """Small-integer points: duplicates and collinear triples abound."""
    return rng.integers(-6, 7, size=(n, 2)).astype(float)


#: Half-integer queries: every cloud vertex, every grid point on a
#: cloud edge, interior and exterior points, all exactly representable.
GRID_QUERIES = np.stack(
    np.meshgrid(np.arange(-16, 17) / 2.0, np.arange(-16, 17) / 2.0), axis=-1
).reshape(-1, 2)


class TestArea:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_qhull_on_gaussian_clouds(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(3, 90))
            cloud = rng.normal(size=(n, 2)) * rng.uniform(0.05, 20.0, 2)
            cloud += rng.uniform(-50.0, 50.0, 2)
            want = ConvexHull(cloud).volume
            assert hull_area(cloud) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_qhull_with_duplicates_and_collinear_points(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(50):
            cloud = grid_cloud(rng, int(rng.integers(4, 40)))
            cloud = np.vstack([cloud, cloud[: len(cloud) // 3]])
            try:
                want = ConvexHull(cloud).volume
            except QhullError:
                assert hull_area(cloud) == 0.0
                continue
            assert hull_area(cloud) == pytest.approx(want, rel=1e-12)

    def test_flat_clouds_have_no_area(self):
        assert hull_area(np.empty((0, 2))) == 0.0
        assert hull_area(np.array([[1.0, 2.0]])) == 0.0
        assert hull_area(np.array([[1.0, 2.0], [3.0, 5.0]])) == 0.0
        assert hull_area(np.array([[0.0, 0.0]] * 3)) == 0.0
        line = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(QhullError):
            ConvexHull(line)
        assert hull_area(line) == 0.0

    def test_unit_square(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.5, 0]])
        assert hull_area(square) == 1.0


class TestHullVertices:
    def test_counter_clockwise_without_edge_points_or_duplicates(self):
        cloud = np.array(
            [[0, 0], [2, 0], [1, 0], [2, 2], [0, 2], [0, 1], [1, 1], [2, 2]],
            dtype=float,
        )
        hull = convex_hull(cloud)
        assert hull.tolist() == [[0, 0], [2, 0], [2, 2], [0, 2]]

    @pytest.mark.parametrize("seed", range(4))
    def test_vertices_equal_qhulls(self, seed):
        rng = np.random.default_rng(200 + seed)
        for _ in range(25):
            cloud = rng.normal(size=(int(rng.integers(3, 60)), 2))
            want = cloud[ConvexHull(cloud).vertices]
            got = convex_hull(cloud)
            assert sorted(map(tuple, got)) == sorted(map(tuple, want))


class TestMembership:
    @pytest.mark.parametrize("seed", range(8))
    def test_equals_delaunay_on_gaussian_clouds(self, seed):
        rng = np.random.default_rng(300 + seed)
        for _ in range(25):
            cloud = rng.normal(size=(int(rng.integers(3, 60)), 2))
            points = rng.normal(size=(400, 2)) * 1.5
            np.testing.assert_array_equal(
                inside_hull(points, cloud), qhull_inside(points, cloud)
            )

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_delaunay_on_edges_vertices_duplicates_and_lines(self, seed):
        rng = np.random.default_rng(400 + seed)
        for _ in range(25):
            cloud = grid_cloud(rng, int(rng.integers(3, 30)))
            cloud = np.vstack([cloud, cloud[:2]])
            try:
                want = qhull_inside(GRID_QUERIES, cloud)
            except QhullError:  # a flat cloud
                assert not inside_hull(GRID_QUERIES, cloud).any()
                continue
            got = inside_hull(GRID_QUERIES, cloud)
            np.testing.assert_array_equal(got, want)
            # Every cloud point is a vertex, on an edge or interior.
            assert inside_hull(cloud, cloud).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_points_rounded_onto_an_edge_count_as_inside(self, seed):
        rng = np.random.default_rng(500 + seed)
        for _ in range(25):
            cloud = rng.normal(size=(int(rng.integers(3, 40)), 2))
            cloud = cloud * rng.uniform(0.1, 10.0) + rng.uniform(-20.0, 20.0, 2)
            hull = convex_hull(cloud)
            edges = np.roll(hull, -1, axis=0) - hull
            on_edges = hull + rng.uniform(0.0, 1.0, (len(hull), 1)) * edges
            assert inside_hull(on_edges, cloud).all()
            # A millionth of an edge's length outward is outside.
            outward = np.column_stack([edges[:, 1], -edges[:, 0]])
            assert not inside_hull(on_edges + 1e-6 * outward, cloud).any()

    def test_boundary_points_count_as_inside(self):
        square = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
        points = np.array(
            [[0, 0], [4, 4], [2, 0], [4, 1], [0, 3], [2, 2], [2, 4]], dtype=float
        )
        assert inside_hull(points, square).all()
        assert qhull_inside(points, square).all()
        outside = np.array([[-1e-9, 2.0], [2.0, 4.0 + 1e-9], [5.0, 5.0]])
        assert not inside_hull(outside, square).any()
        assert not qhull_inside(outside, square).any()

    def test_a_hull_without_area_contains_nothing(self):
        points = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]])
        for cloud in (
            np.empty((0, 2)),
            np.array([[0.0, 0.0]]),
            np.array([[0.0, 0.0], [1.0, 1.0]]),
            np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0]]),
        ):
            assert inside_hull(points, cloud).tolist() == [False] * 3
        assert inside_hull(np.empty((0, 2)), points).shape == (0,)


class TestFigures:
    """The hulls of Figures 11 and 12 themselves, against qhull."""

    def test_balance_planes(self, balance_report):
        similarity = balance_report.similarity
        labels = list(similarity.workloads)
        old = [labels.index(n) for n in labels if n.split(".")[0][0] == "4"]
        new = [labels.index(n) for n in labels if n.split(".")[0][0] in "56"]
        for plane, axes in (
            (balance_report.plane_12, [0, 1]),
            (balance_report.plane_34, [2, 3]),
        ):
            points = similarity.scores[:, axes]
            p17, p06 = points[new], points[old]
            assert plane.area_2017 == pytest.approx(
                ConvexHull(p17).volume, rel=1e-12
            )
            assert plane.area_2006 == pytest.approx(
                ConvexHull(p06).volume, rel=1e-12
            )
            outside = 1.0 - qhull_inside(p17, p06).mean()
            assert plane.fraction_2017_outside_2006 == outside

    def test_power_plane(self, power_spectrum):
        for names, area in (
            (power_spectrum.names_2017, power_spectrum.area_2017),
            (power_spectrum.names_2006, power_spectrum.area_2006),
        ):
            points = np.array([power_spectrum.points[n] for n in names])
            assert area == pytest.approx(ConvexHull(points).volume, rel=1e-12)
