"""CPU2017 vs CPU2006 coverage comparison (Section V-A/B, Figure 11).

Projects both suites into a common PC space and asks:

* how much of the PC1-PC2 and PC3-PC4 planes does each suite cover
  (convex-hull area), and what fraction of CPU2017 lies outside the
  CPU2006 hull;
* which *removed* CPU2006 benchmarks are left uncovered by CPU2017 (the
  paper finds exactly three: 429.mcf, 445.gobmk, 473.astar).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.similarity import SimilarityResult, analyze_similarity
from repro.errors import AnalysisError
from repro.perf.profiler import Profiler
from repro.stats.hull import hull_area, inside_hull
from repro.workloads.spec import Suite, workloads_in_suite
from repro.workloads.spec2006 import REMOVED_IN_2017

__all__ = ["CoveragePlane", "BalanceReport", "analyze_balance"]


@dataclass(frozen=True)
class CoveragePlane:
    """Hull statistics of both suites in one PC plane."""

    axes: Tuple[int, int]
    area_2017: float
    area_2006: float
    fraction_2017_outside_2006: float

    @property
    def expansion(self) -> float:
        """CPU2017 area relative to CPU2006 area."""
        if self.area_2006 == 0.0:
            raise AnalysisError("degenerate CPU2006 hull")
        return self.area_2017 / self.area_2006


@dataclass(frozen=True)
class BalanceReport:
    """Figure 11 plus the removed-benchmark coverage analysis."""

    similarity: SimilarityResult
    plane_12: CoveragePlane
    plane_34: CoveragePlane
    uncovered_removed: Tuple[str, ...]
    nn_distance: Dict[str, float]
    coverage_threshold: float

    @property
    def workloads_2017(self) -> List[str]:
        return [w for w in self.similarity.workloads if not w[0].isdigit() or w.split(".")[0][0] in "56"]


def analyze_balance(
    machines: Optional[List[str]] = None,
    profiler: Optional[Profiler] = None,
    coverage_quantile: float = 0.90,
) -> BalanceReport:
    """Run the Figure 11 suite-balance analysis.

    A removed CPU2006 benchmark counts as *uncovered* when its nearest
    CPU2017 neighbour in PC space is farther than the
    ``coverage_quantile`` of CPU2017's own nearest-neighbour distances —
    i.e. it sits farther from the new suite than the new suite's points
    sit from each other.
    """
    names_2017 = [
        s.name
        for s in workloads_in_suite(
            Suite.SPEC2017_RATE_INT,
            Suite.SPEC2017_SPEED_INT,
            Suite.SPEC2017_RATE_FP,
            Suite.SPEC2017_SPEED_FP,
        )
    ]
    names_2006 = [
        s.name for s in workloads_in_suite(Suite.SPEC2006_INT, Suite.SPEC2006_FP)
    ]
    result = analyze_similarity(
        names_2017 + names_2006,
        machines=machines,
        n_components=4,
        profiler=profiler,
    )
    scores = result.scores
    labels = list(result.workloads)
    idx_2017 = np.array([labels.index(n) for n in names_2017])
    idx_2006 = np.array([labels.index(n) for n in names_2006])

    planes = []
    for axes in ((0, 1), (2, 3)):
        plane = scores[:, list(axes)]
        p17, p06 = plane[idx_2017], plane[idx_2006]
        planes.append(
            CoveragePlane(
                axes=(axes[0] + 1, axes[1] + 1),
                area_2017=hull_area(p17),
                area_2006=hull_area(p06),
                fraction_2017_outside_2006=float(
                    1.0 - inside_hull(p17, p06).mean()
                ),
            )
        )

    # Removed-benchmark coverage in the full retained PC space.
    space = scores
    p17 = space[idx_2017]
    # CPU2017's own nearest-neighbour distance scale.
    d17 = np.linalg.norm(p17[:, None, :] - p17[None, :, :], axis=2)
    np.fill_diagonal(d17, np.inf)
    nn_scale = float(np.quantile(d17.min(axis=1), coverage_quantile))

    nn_distance: Dict[str, float] = {}
    uncovered: List[str] = []
    for name in REMOVED_IN_2017:
        point = space[labels.index(name)]
        distance = float(np.linalg.norm(p17 - point, axis=1).min())
        nn_distance[name] = distance
        if distance > nn_scale:
            uncovered.append(name)
    return BalanceReport(
        similarity=result,
        plane_12=planes[0],
        plane_34=planes[1],
        uncovered_removed=tuple(sorted(uncovered)),
        nn_distance=nn_distance,
        coverage_threshold=nn_scale,
    )
