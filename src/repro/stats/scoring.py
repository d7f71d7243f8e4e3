"""Geometric-mean scoring and subset estimation error.

SPEC overall scores are geometric means of per-benchmark speedups over a
reference machine; the paper validates subsets by comparing the subset
geomean against the full-suite geomean on commercial systems
(Section IV-B, Figures 5-6, Table VI).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "geometric_mean",
    "weighted_geometric_mean",
    "relative_error",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise AnalysisError("geometric mean of an empty sequence")
    if (array <= 0.0).any():
        raise AnalysisError("geometric mean requires positive values")
    return float(np.exp(np.log(array).mean()))


def weighted_geometric_mean(
    values: Iterable[float], weights: Iterable[float]
) -> float:
    """Weighted geometric mean of positive values.

    Used to score a representative subset: each cluster representative
    stands in for every benchmark of its cluster, so it enters the suite
    score with its cluster's size as weight.
    """
    array = np.asarray(list(values), dtype=float)
    weight = np.asarray(list(weights), dtype=float)
    if array.size == 0 or array.shape != weight.shape:
        raise AnalysisError("values and weights must be equal-length, non-empty")
    if (array <= 0.0).any():
        raise AnalysisError("geometric mean requires positive values")
    if (weight <= 0.0).any():
        raise AnalysisError("weights must be positive")
    return float(np.exp((np.log(array) * weight).sum() / weight.sum()))


def relative_error(estimate: float, truth: float) -> float:
    """|estimate - truth| / truth."""
    if truth == 0.0:
        raise AnalysisError("relative error against a zero reference")
    return abs(estimate - truth) / abs(truth)
