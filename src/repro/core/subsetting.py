"""Representative subset selection (Section IV-A, Table V).

Cutting the dendrogram at a linkage distance yields flat clusters; one
representative per cluster (the member with the shortest linkage
distance to its cluster) forms the subset.  Simulating only the subset
reduces total simulation time by the ratio of dynamic instruction
counts, which is how the paper computes its 4.5-6.3x reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.core.similarity import SimilarityResult, analyze_similarity
from repro.errors import AnalysisError
from repro.obs.trace import span
from repro.perf.profiler import Profiler
from repro.stats.cluster import Linkage
from repro.workloads.spec import Suite, get_workload, workloads_in_suite

__all__ = [
    "SubsetResult",
    "select_subset",
    "subset_suite",
    "PAPER_SUBSETS",
]

#: Table V: the paper's identified 3-benchmark subsets per sub-suite.
PAPER_SUBSETS = {
    Suite.SPEC2017_SPEED_INT: (
        "605.mcf_s", "641.leela_s", "623.xalancbmk_s",
    ),
    Suite.SPEC2017_RATE_INT: (
        "505.mcf_r", "523.xalancbmk_r", "531.deepsjeng_r",
    ),
    Suite.SPEC2017_SPEED_FP: (
        "607.cactubssn_s", "621.wrf_s", "654.roms_s",
    ),
    Suite.SPEC2017_RATE_FP: (
        "507.cactubssn_r", "549.fotonik3d_r", "544.nab_r",
    ),
}


@dataclass(frozen=True)
class SubsetResult:
    """A representative subset of one sub-suite.

    Attributes
    ----------
    subset:
        Selected benchmark names, one per cluster.
    clusters:
        The flat clusters the subset represents.
    threshold:
        Linkage distance at which the dendrogram was cut.
    time_reduction:
        Total dynamic instruction count of the sub-suite divided by the
        subset's (the paper's simulation-time reduction factor).
    similarity:
        The underlying similarity analysis.
    """

    subset: Tuple[str, ...]
    clusters: Tuple[Tuple[str, ...], ...]
    threshold: float
    time_reduction: float
    similarity: SimilarityResult

    @property
    def k(self) -> int:
        return len(self.subset)


def select_subset(similarity: SimilarityResult, k: int) -> SubsetResult:
    """Cut an existing similarity analysis into a k-benchmark subset."""
    n = similarity.tree.n_leaves
    if not 1 <= k <= n:
        raise AnalysisError(f"k must be in [1, {n}], got {k}")
    with span("subset.select", k=k, n=n):
        clusters = similarity.tree.clusters_into(k)
        subset = similarity.representatives_for(k)
        heights = similarity.tree.heights
        # The cut sits between the (n-k)th and (n-k+1)th merge heights.
        threshold = float(heights[n - k - 1]) if k < n else 0.0
        reduction = _time_reduction(similarity.workloads, subset)
    return SubsetResult(
        subset=tuple(subset),
        clusters=tuple(tuple(c) for c in clusters),
        threshold=threshold,
        time_reduction=reduction,
        similarity=similarity,
    )


def subset_suite(
    suite: Suite,
    k: int = 3,
    linkage: Linkage = Linkage.AVERAGE,
    machines: Optional[Iterable[str]] = None,
    profiler: Optional[Profiler] = None,
) -> SubsetResult:
    """Select a k-benchmark subset of one CPU2017 sub-suite (Table V).

    ``profiler`` memoizes the suite's profiles; pass the one the
    caller's later steps (e.g. :func:`repro.core.validation.validate_subset`)
    use, so each pair is profiled once.
    """
    workloads = [spec.name for spec in workloads_in_suite(suite)]
    if not workloads:
        raise AnalysisError(f"suite {suite} has no registered workloads")
    similarity = analyze_similarity(
        workloads,
        machines=machines,
        linkage=linkage,
        profiler=profiler,
    )
    return select_subset(similarity, k)


def _time_reduction(all_names: Sequence[str], subset: Sequence[str]) -> float:
    total = sum(get_workload(name).icount_billions for name in all_names)
    chosen = sum(get_workload(name).icount_billions for name in subset)
    if chosen <= 0.0:
        raise AnalysisError("subset has no simulated instructions")
    return total / chosen
