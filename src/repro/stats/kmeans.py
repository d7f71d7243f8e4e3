"""K-means clustering (alternative to hierarchical clustering).

The paper uses agglomerative clustering; related work (Phansalkar 2007)
used k-means for the equivalent CPU2006 study.  This from-scratch
implementation (k-means++ seeding, Lloyd iterations) supports the
ablation comparing subset choices under the two clustering families.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import AnalysisError

__all__ = ["KMeansResult", "kmeans"]


@dataclass(frozen=True)
class KMeansResult:
    """A fitted k-means clustering."""

    centroids: np.ndarray
    assignment: np.ndarray
    inertia: float
    iterations: int

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def clusters(self, labels: Sequence[str]) -> List[List[str]]:
        """Named clusters, ordered by cluster index."""
        if len(labels) != self.assignment.shape[0]:
            raise AnalysisError("labels must match the number of points")
        groups: List[List[str]] = [[] for _ in range(self.k)]
        for label, cluster in zip(labels, self.assignment):
            groups[int(cluster)].append(label)
        return groups

    def representatives(self, points: np.ndarray, labels: Sequence[str]) -> List[str]:
        """Per cluster: the point closest to the centroid."""
        points = np.asarray(points, dtype=float)
        if points.shape[0] != len(labels):
            raise AnalysisError("labels must match the number of points")
        chosen: List[str] = []
        for cluster in range(self.k):
            members = np.nonzero(self.assignment == cluster)[0]
            if members.size == 0:
                continue
            gaps = np.linalg.norm(
                points[members] - self.centroids[cluster], axis=1
            )
            order = np.argsort(gaps, kind="stable")
            best = min(
                (float(gaps[i]), labels[int(members[i])]) for i in order
            )
            chosen.append(best[1])
        return chosen


def _kmeanspp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """K-means++ seeding: spread the initial centroids out."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(0, n)]
    squared = np.full(n, np.inf)
    for i in range(1, k):
        distance = np.linalg.norm(points - centroids[i - 1], axis=1) ** 2
        np.minimum(squared, distance, out=squared)
        total = squared.sum()
        if total <= 0.0:
            centroids[i:] = centroids[0]
            break
        probabilities = squared / total
        centroids[i] = points[rng.choice(n, p=probabilities)]
    return centroids


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int = 2017,
    max_iterations: int = 200,
    restarts: int = 8,
) -> KMeansResult:
    """Cluster points into ``k`` groups (best of several restarts).

    Deterministic for a given seed; empty clusters are re-seeded with
    the point farthest from its centroid.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise AnalysisError(f"expected a 2-D matrix, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise AnalysisError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)

    best: Optional[KMeansResult] = None
    for _restart in range(max(1, restarts)):
        centroids = _kmeanspp_init(points, k, rng)
        assignment = np.zeros(n, dtype=int)
        for iteration in range(1, max_iterations + 1):
            distances = np.linalg.norm(
                points[:, None, :] - centroids[None, :, :], axis=2
            )
            new_assignment = distances.argmin(axis=1)
            # Re-seed empty clusters with the worst-fitting point.
            for cluster in range(k):
                if not (new_assignment == cluster).any():
                    worst = int(
                        distances[np.arange(n), new_assignment].argmax()
                    )
                    new_assignment[worst] = cluster
            if (new_assignment == assignment).all() and iteration > 1:
                break
            assignment = new_assignment
            for cluster in range(k):
                members = points[assignment == cluster]
                if members.size:
                    centroids[cluster] = members.mean(axis=0)
        inertia = float(
            ((points - centroids[assignment]) ** 2).sum()
        )
        candidate = KMeansResult(
            centroids=centroids.copy(),
            assignment=assignment.copy(),
            inertia=inertia,
            iterations=iteration,
        )
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best
