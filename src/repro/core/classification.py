"""Branch / cache behaviour classification (Section IV-E, Figs 9-10).

Projects all 43 CPU2017 benchmarks (rate and speed together) into
behaviour-specific PC spaces:

* Figure 9 — branch space built from the branch metrics only; PC axes
  dominated by branch/taken fractions and misprediction rates.
* Figure 10 — cache space built from data-cache and instruction-cache
  metrics; identifies benchmarks with poor data locality and the
  (modest) instruction-cache extremes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.similarity import SimilarityResult, analyze_similarity
from repro.errors import AnalysisError
from repro.perf.counters import (
    BRANCH_METRICS,
    DCACHE_METRICS,
    ICACHE_METRICS,
    Metric,
)
from repro.perf.profiler import Profiler
from repro.workloads.spec import Suite, workloads_in_suite

__all__ = [
    "BehaviorSpace",
    "branch_space",
    "dcache_space",
    "icache_space",
    "extremes",
]


@dataclass(frozen=True)
class BehaviorSpace:
    """A behaviour-specific PC projection of the CPU2017 benchmarks.

    ``points`` maps each workload to its (PC1, PC2) coordinates;
    ``dominated_by`` lists the strongest-loading feature labels per PC.
    """

    name: str
    similarity: SimilarityResult
    points: Dict[str, Tuple[float, float]]
    dominated_by: Dict[int, Tuple[str, ...]]
    variance_covered: float

    def coordinates(self, workload: str) -> Tuple[float, float]:
        """(PC1, PC2) coordinates of one workload in this space."""
        try:
            return self.points[workload]
        except KeyError:
            raise AnalysisError(f"workload {workload!r} not in space") from None


def _cpu2017_names() -> List[str]:
    return [
        s.name
        for s in workloads_in_suite(
            Suite.SPEC2017_RATE_INT,
            Suite.SPEC2017_SPEED_INT,
            Suite.SPEC2017_RATE_FP,
            Suite.SPEC2017_SPEED_FP,
        )
    ]


def _space(
    name: str,
    metrics: Sequence[Metric],
    machines: Optional[List[str]],
    profiler: Optional[Profiler],
) -> BehaviorSpace:
    result = analyze_similarity(
        _cpu2017_names(), machines=machines, metrics=metrics, profiler=profiler
    )
    scores = result.scores
    points = {
        workload: (float(scores[i, 0]), float(scores[i, 1]))
        if scores.shape[1] > 1
        else (float(scores[i, 0]), 0.0)
        for i, workload in enumerate(result.workloads)
    }
    dominated = {
        pc: result.pca.dominant_features(pc, top=3)
        for pc in range(1, min(4, result.pca.n_components) + 1)
    }
    return BehaviorSpace(
        name=name,
        similarity=result,
        points=points,
        dominated_by=dominated,
        variance_covered=result.pca.cumulative_variance(
            min(2, result.n_components)
        ),
    )


def branch_space(
    machines: Optional[List[str]] = None, profiler: Optional[Profiler] = None
) -> BehaviorSpace:
    """Figure 9: the branch-behaviour PC space."""
    return _space("branch", BRANCH_METRICS, machines, profiler)


def dcache_space(
    machines: Optional[List[str]] = None, profiler: Optional[Profiler] = None
) -> BehaviorSpace:
    """Figure 10 (left): the data-cache behaviour PC space."""
    return _space("dcache", DCACHE_METRICS, machines, profiler)


def icache_space(
    machines: Optional[List[str]] = None, profiler: Optional[Profiler] = None
) -> BehaviorSpace:
    """Figure 10 (right): the instruction-cache behaviour PC space."""
    return _space("icache", ICACHE_METRICS, machines, profiler)


def extremes(
    metric: Metric,
    top: int = 4,
    machine: str = "skylake-i7-6700",
    profiler: Optional[Profiler] = None,
) -> List[Tuple[str, float]]:
    """The CPU2017 benchmarks with the largest values of one metric.

    Used for the paper's call-outs (e.g. leela/mcf suffer the highest
    misprediction rates; mcf/cactuBSSN/fotonik3d the highest data-cache
    miss rates; perlbench/gcc the highest I-cache activity).
    """
    if top < 1:
        raise AnalysisError(f"top must be >= 1, got {top}")
    profiler = profiler or Profiler()
    values = [
        (name, profiler.profile(name, machine).metrics.get(metric, 0.0))
        for name in _cpu2017_names()
    ]
    return sorted(values, key=lambda pair: -pair[1])[:top]
