"""Distance utilities for the similarity analyses."""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "euclidean_distance_matrix",
    "condensed_from_square",
    "square_from_condensed",
]


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


def condensed_from_square(square: np.ndarray) -> np.ndarray:
    """Upper-triangle (condensed) form of a square distance matrix."""
    matrix = np.asarray(square, dtype=float)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise AnalysisError(f"expected a square matrix, got shape {matrix.shape}")
    indices = np.triu_indices(n, k=1)
    return matrix[indices]


def square_from_condensed(condensed: np.ndarray, n: int) -> np.ndarray:
    """Square form of a condensed distance vector of ``n`` points."""
    values = np.asarray(condensed, dtype=float)
    expected = n * (n - 1) // 2
    if values.shape != (expected,):
        raise AnalysisError(
            f"condensed vector for n={n} must have {expected} entries, "
            f"got {values.shape}"
        )
    square = np.zeros((n, n), dtype=float)
    indices = np.triu_indices(n, k=1)
    square[indices] = values
    square[(indices[1], indices[0])] = values
    return square
