"""Planar convex hulls for the suite-coverage figures (Figures 11 and 12).

Andrew's monotone chain builds a hull, the shoelace formula gives its
area, and membership tests a point against the half-plane of every
hull edge.  A point on an edge or a vertex counts as inside, as qhull's
``Delaunay(cloud).find_simplex(point) >= 0`` counts it.  "On" allows
for rounding: a point computed on an edge may land a few ulps of the
coordinates outside it, so each edge forgives a distance of
``100 * eps`` (qhull's tolerance) times the cloud's largest coordinate.
A hull with fewer than three vertices (fewer than three distinct
points, or all of them on one line) has zero area and contains nothing.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["convex_hull", "hull_area", "inside_hull"]

#: Distance a point may sit outside an edge and still be on it, relative
#: to the cloud's largest coordinate.
_EDGE_TOLERANCE = 100.0 * np.finfo(float).eps


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Hull vertices of a ``(n, 2)`` point cloud, counter-clockwise.

    Duplicates and points on the hull's edges are not vertices.  The
    result has fewer than three rows when the cloud has no area.
    """
    unique = np.unique(np.asarray(points, dtype=float).reshape(-1, 2), axis=0)
    if unique.shape[0] < 3:
        return unique
    ordered = [tuple(point) for point in unique.tolist()]
    vertices = _chain(ordered) + _chain(ordered[::-1])
    return np.array(vertices).reshape(-1, 2)


def hull_area(points: np.ndarray) -> float:
    """Area of the convex hull of a ``(n, 2)`` point cloud (0.0 if flat)."""
    hull = convex_hull(points)
    if hull.shape[0] < 3:
        return 0.0
    # Shoelace formula about the first vertex, which keeps the products
    # small when the cloud sits far from the origin.
    x = hull[:, 0] - hull[0, 0]
    y = hull[:, 1] - hull[0, 1]
    return float(0.5 * (x[:-1] @ y[1:] - x[1:] @ y[:-1]))


def inside_hull(points: np.ndarray, cloud: np.ndarray) -> np.ndarray:
    """Boolean mask of the ``points`` inside the convex hull of ``cloud``."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    hull = convex_hull(cloud)
    if hull.shape[0] < 3:
        return np.zeros(points.shape[0], dtype=bool)
    edges = np.roll(hull, -1, axis=0) - hull
    offsets = points[:, None, :] - hull[None, :, :]
    # Counter-clockwise hull: a point is inside every edge's left
    # half-plane.  cross / |edge| is its distance from the edge's line.
    cross = edges[:, 0] * offsets[..., 1] - edges[:, 1] * offsets[..., 0]
    slack = _EDGE_TOLERANCE * np.abs(hull).max() * np.hypot(*edges.T)
    return np.all(cross >= -slack, axis=1)


def _chain(ordered: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """One half of the monotone chain, without its last point."""
    chain: List[Tuple[float, float]] = []
    for point in ordered:
        while len(chain) >= 2 and _turn(chain[-2], chain[-1], point) <= 0.0:
            chain.pop()
        chain.append(point)
    return chain[:-1]


def _turn(
    origin: Tuple[float, float], a: Tuple[float, float], b: Tuple[float, float]
) -> float:
    """Cross product of ``a - origin`` and ``b - origin`` (> 0: left turn)."""
    return (a[0] - origin[0]) * (b[1] - origin[1]) - (a[1] - origin[1]) * (
        b[0] - origin[0]
    )
