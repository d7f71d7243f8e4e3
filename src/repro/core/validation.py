"""Subset representativeness validation (Section IV-B).

For each commercial system, the suite's overall score is the geometric
mean of its per-benchmark speedups; the subset's score is the geometric
mean over the subset only.  The validation error is the relative gap
between the two (Figures 5-6), and Table VI compares the identified
subsets against randomly drawn subsets of the same size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.specdb import CommercialSystem, published_speedups
from repro.errors import AnalysisError
from repro.obs.trace import span
from repro.perf.profiler import Profiler
from repro.stats.scoring import (
    geometric_mean,
    relative_error,
    weighted_geometric_mean,
)
from repro.workloads.spec import Suite, workloads_in_suite

__all__ = [
    "SystemValidation",
    "ValidationResult",
    "validate_subset",
    "random_subset_errors",
    "bootstrap_error_interval",
]


@dataclass(frozen=True)
class SystemValidation:
    """Validation of a subset on one commercial system (one Fig 5/6 bar)."""

    system: str
    full_score: float
    subset_score: float
    error: float


@dataclass(frozen=True)
class ValidationResult:
    """Validation of one subset across the system population."""

    suite: Suite
    subset: Tuple[str, ...]
    systems: Tuple[SystemValidation, ...]

    @property
    def mean_error(self) -> float:
        return float(np.mean([s.error for s in self.systems]))

    @property
    def max_error(self) -> float:
        return float(np.max([s.error for s in self.systems]))

    @property
    def accuracy(self) -> float:
        """Prediction accuracy, 1 - mean error (the paper's >=93%)."""
        return 1.0 - self.mean_error


def validate_subset(
    suite: Suite,
    subset: Sequence[str],
    systems: Optional[Sequence[CommercialSystem]] = None,
    profiler: Optional[Profiler] = None,
    weights: Optional[Sequence[float]] = None,
) -> ValidationResult:
    """Score a subset against the full sub-suite on every system.

    ``weights`` — typically the cluster sizes from the subset selection —
    weight each representative by how many benchmarks it stands for; an
    unweighted geometric mean is used when omitted (appropriate for
    random subsets, which carry no cluster structure).
    """
    names = [spec.name for spec in workloads_in_suite(suite)]
    if not names:
        raise AnalysisError(f"suite {suite} has no registered workloads")
    unknown = [b for b in subset if b not in names]
    if unknown:
        raise AnalysisError(f"subset benchmarks not in {suite}: {unknown}")
    if weights is not None and len(weights) != len(subset):
        raise AnalysisError("weights must match the subset length")
    with span(
        "validate.subset", suite=suite.value, k=len(subset)
    ) as validate_span:
        scores = published_speedups(names, systems=systems, profiler=profiler)
        validate_span.set(systems=len(scores))
        validations = _score_subset(scores, subset, weights)
    return ValidationResult(
        suite=suite,
        subset=tuple(subset),
        systems=tuple(validations),
    )


def _score_subset(
    scores: Dict[str, Dict[str, float]],
    subset: Sequence[str],
    weights: Optional[Sequence[float]],
) -> List[SystemValidation]:
    validations: List[SystemValidation] = []
    for system_name, speedups in scores.items():
        full = geometric_mean(speedups.values())
        values = [speedups[b] for b in subset]
        if weights is not None:
            partial = weighted_geometric_mean(values, weights)
        else:
            partial = geometric_mean(values)
        validations.append(
            SystemValidation(
                system=system_name,
                full_score=full,
                subset_score=partial,
                error=relative_error(partial, full),
            )
        )
    return validations


def bootstrap_error_interval(
    result: ValidationResult,
    confidence: float = 0.90,
    draws: int = 2000,
    seed: int = 2017,
) -> Tuple[float, float]:
    """Bootstrap confidence interval of a subset's mean error.

    The paper reports point estimates over a handful of systems; this
    resamples the per-system errors to quantify how much the mean error
    depends on which commercial systems happened to submit results.
    """
    if not 0.0 < confidence < 1.0:
        raise AnalysisError(f"confidence must be in (0, 1), got {confidence}")
    if draws < 1:
        raise AnalysisError(f"draws must be >= 1, got {draws}")
    errors = np.array([s.error for s in result.systems])
    rng = np.random.default_rng(seed)
    samples = rng.choice(errors, size=(draws, errors.size), replace=True)
    means = samples.mean(axis=1)
    tail = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, tail)),
        float(np.quantile(means, 1.0 - tail)),
    )


def random_subset_errors(
    suite: Suite,
    k: int,
    n_sets: int = 2,
    seed: int = 2017,
    systems: Optional[Sequence[CommercialSystem]] = None,
    profiler: Optional[Profiler] = None,
) -> List[ValidationResult]:
    """Validation of randomly drawn subsets (Table VI baselines).

    Draws ``n_sets`` subsets of size ``k`` uniformly without replacement
    (deterministic per seed) and validates each.
    """
    names = [spec.name for spec in workloads_in_suite(suite)]
    if k > len(names):
        raise AnalysisError(f"k={k} exceeds suite size {len(names)}")
    rng = np.random.default_rng(seed)
    results = []
    for _ in range(n_sets):
        chosen = sorted(rng.choice(names, size=k, replace=False))
        results.append(
            validate_subset(suite, chosen, systems=systems, profiler=profiler)
        )
    return results
