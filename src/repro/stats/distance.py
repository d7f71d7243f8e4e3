"""Distance utilities for the similarity analyses."""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError

__all__ = ["euclidean_distance_matrix"]


def euclidean_distance_matrix(points: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, shape ``(n, n)``.

    Program similarity is measured as Euclidean distance between the
    benchmarks' (PC-space) feature vectors (Section III).
    """
    matrix = np.asarray(points, dtype=float)
    if matrix.ndim != 2:
        raise AnalysisError(f"expected a 2-D matrix, got shape {matrix.shape}")
    squared = (matrix ** 2).sum(axis=1)
    gram = matrix @ matrix.T
    distances = squared[:, None] + squared[None, :] - 2.0 * gram
    np.maximum(distances, 0.0, out=distances)
    result = np.sqrt(distances)
    # The x'x + x'x - 2x'x cancellation leaves ~1e-8 residue on the
    # diagonal; it is exactly zero by definition.
    np.fill_diagonal(result, 0.0)
    return result
