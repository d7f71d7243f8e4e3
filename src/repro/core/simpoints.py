"""SimPoint-style representative simulation intervals.

The paper's subsetting reduces *which benchmarks* to simulate; the
related work it builds on (Sherwood et al. PACT 2001, Nair & John 2008)
reduces *how much of each benchmark* to simulate: split execution into
fixed-size intervals, describe each interval by its basic-block style
execution frequency vector, cluster the intervals, and simulate one
representative per cluster weighted by cluster size.

This module implements that methodology over our synthetic traces:
interval fingerprints are branch-site frequency vectors (the synthetic
analogue of basic-block vectors), clustered with
:func:`repro.stats.kmeans.kmeans`.  Because our workload models are
statistically stationary, the expected result is *few* phases — which
the bench verifies as a self-consistency check, and which makes the
estimation-error accounting exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.stats.kmeans import kmeans
from repro.workloads.spec import get_workload
from repro.workloads.synthesis import SyntheticTrace, synthesize_trace

__all__ = ["SimPoint", "SimPointAnalysis", "find_simpoints"]


@dataclass(frozen=True)
class SimPoint:
    """One representative simulation interval."""

    interval: int
    weight: float


@dataclass(frozen=True)
class SimPointAnalysis:
    """Representative intervals of one benchmark's execution.

    Attributes
    ----------
    workload:
        Benchmark name.
    interval_instructions:
        Interval length in instructions.
    n_intervals:
        Number of intervals the window was split into.
    simpoints:
        Chosen intervals with their weights (summing to 1).
    phase_assignment:
        Per-interval phase (cluster) index.
    speedup:
        ``n_intervals / len(simpoints)`` — the simulation-time reduction
        from sampling only the representatives.
    """

    workload: str
    interval_instructions: int
    n_intervals: int
    simpoints: Tuple[SimPoint, ...]
    phase_assignment: np.ndarray
    speedup: float

    @property
    def n_phases(self) -> int:
        return len(self.simpoints)

    def estimate(self, per_interval_values: np.ndarray) -> float:
        """Weighted estimate of a per-interval quantity (e.g. CPI)."""
        values = np.asarray(per_interval_values, dtype=float)
        if values.shape != (self.n_intervals,):
            raise AnalysisError(
                f"expected {self.n_intervals} per-interval values, got "
                f"{values.shape}"
            )
        return float(
            sum(point.weight * values[point.interval] for point in self.simpoints)
        )


def _interval_fingerprints(
    trace: SyntheticTrace, n_intervals: int
) -> np.ndarray:
    """Branch-site frequency vector per interval (basic-block analogue)."""
    sites = trace.branch_sites
    if sites.size == 0:
        raise AnalysisError("trace contains no branches")
    n_sites = int(sites.max()) + 1
    per_interval = np.array_split(np.arange(sites.size), n_intervals)
    fingerprints = np.zeros((n_intervals, n_sites))
    for i, indices in enumerate(per_interval):
        if indices.size == 0:
            continue
        counts = np.bincount(sites[indices], minlength=n_sites)
        fingerprints[i] = counts / indices.size
    return fingerprints


def find_simpoints(
    workload: str,
    instructions: int = 200_000,
    interval_instructions: int = 10_000,
    max_phases: int = 6,
    seed: int = 2017,
) -> SimPointAnalysis:
    """Find representative simulation intervals for one benchmark.

    The number of phases is chosen by the elbow of the k-means inertia
    curve (smallest k whose inertia is within 20% of the k = 1
    improvement already captured), capped at ``max_phases``.
    """
    if interval_instructions <= 0 or instructions < 2 * interval_instructions:
        raise AnalysisError(
            "need at least two intervals; increase instructions or shrink "
            "interval_instructions"
        )
    spec = get_workload(workload)
    trace = synthesize_trace(spec, instructions, seed=seed)
    n_intervals = instructions // interval_instructions
    fingerprints = _interval_fingerprints(trace, n_intervals)

    base = kmeans(fingerprints, 1, seed=seed)
    chosen = base
    chosen_k = 1
    for k in range(2, min(max_phases, n_intervals) + 1):
        candidate = kmeans(fingerprints, k, seed=seed)
        if base.inertia <= 0:
            break
        if (base.inertia - candidate.inertia) / base.inertia > 0.2 + 0.1 * (
            chosen_k - 1
        ):
            chosen, chosen_k = candidate, k
        else:
            break

    labels = [str(i) for i in range(n_intervals)]
    representatives = chosen.representatives(fingerprints, labels)
    counts = np.bincount(chosen.assignment, minlength=chosen.k)
    simpoints = []
    for cluster, representative in enumerate(representatives):
        weight = counts[cluster] / n_intervals
        if weight > 0:
            simpoints.append(SimPoint(interval=int(representative), weight=float(weight)))
    return SimPointAnalysis(
        workload=spec.name,
        interval_instructions=interval_instructions,
        n_intervals=n_intervals,
        simpoints=tuple(simpoints),
        phase_assignment=chosen.assignment,
        speedup=n_intervals / len(simpoints),
    )
