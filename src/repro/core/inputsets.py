"""Representative input-set selection (Section IV-C, Figs 7-8, Table VII).

Benchmarks with multiple reference inputs are expanded into one row per
input set plus an "aggregate" row (the weighted mean of the input sets'
features, standing for the reportable run that aggregates all inputs).
The most representative input set of a benchmark is the one closest to
its aggregate in PC space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.stats.cluster import ClusterTree, Linkage, linkage_matrix
from repro.stats.distance import euclidean_distance_matrix
from repro.stats.pca import fit_pca
from repro.stats.preprocess import drop_constant_columns
from repro.workloads.spec import Suite, WorkloadSpec, workloads_in_suite

__all__ = ["InputSetAnalysis", "analyze_input_sets", "PAPER_REPRESENTATIVE_INPUTS"]

#: Table VII: the paper's representative input set per benchmark.
PAPER_REPRESENTATIVE_INPUTS: Dict[str, int] = {
    "500.perlbench_r": 1,
    "600.perlbench_s": 1,
    "502.gcc_r": 2,
    "602.gcc_s": 1,
    "525.x264_r": 3,
    "625.x264_s": 3,
    "557.xz_r": 1,
    "657.xz_s": 1,
    "503.bwaves_r": 1,
    "603.bwaves_s": 1,
}


@dataclass(frozen=True)
class InputSetAnalysis:
    """Input-set similarity for a set of benchmarks.

    Attributes
    ----------
    tree:
        Dendrogram over all input-set variants (and single-input
        benchmarks as plain leaves), as in Figures 7-8.
    representative:
        ``{benchmark name: representative input index}`` for every
        multi-input benchmark (Table VII).
    variance_covered:
        Variance covered by the retained PCs.
    n_components:
        Retained PC count.
    input_cohesion:
        ``{benchmark name: max pairwise PC-distance among its inputs}``;
        small values mean the inputs behave alike (the paper's CPU2017
        finding, in contrast to CPU2006 gcc).
    """

    tree: ClusterTree
    representative: Dict[str, int]
    variance_covered: float
    n_components: int
    input_cohesion: Dict[str, float]
    distances: np.ndarray
    labels: Tuple[str, ...]

    def distance_between(self, first: str, second: str) -> float:
        """PC-space distance between two leaves of the analysis."""
        try:
            i = self.labels.index(first)
            j = self.labels.index(second)
        except ValueError as exc:
            raise AnalysisError(f"unknown label: {exc}") from None
        return float(self.distances[i, j])


def analyze_input_sets(
    benchmarks: Optional[Iterable[str]] = None,
    suites: Sequence[Suite] = (
        Suite.SPEC2017_RATE_INT,
        Suite.SPEC2017_SPEED_INT,
    ),
    machines: Optional[Iterable[str]] = None,
    linkage: Linkage = Linkage.AVERAGE,
    profiler: Optional[Profiler] = None,
) -> InputSetAnalysis:
    """Cluster per-input variants and pick representative inputs.

    By default analyses the INT suites (Figure 7); pass the FP suites
    for Figure 8.  Benchmarks may also be given explicitly.
    """
    if benchmarks is not None:
        specs = [_lookup(name) for name in benchmarks]
    else:
        specs = [
            spec for suite in suites for spec in workloads_in_suite(suite)
        ]
    if not specs:
        raise AnalysisError("no benchmarks to analyze")
    profiler = profiler or Profiler()

    rows: List[WorkloadSpec] = []
    aggregates: Dict[str, List[str]] = {}
    for spec in specs:
        variants = spec.input_variants()
        if len(variants) == 1:
            rows.append(spec)
        else:
            rows.extend(variants)
            aggregates[spec.name] = [v.name for v in variants]

    matrix = build_feature_matrix(rows, machines=machines, profiler=profiler)
    values, labels = drop_constant_columns(matrix.values, matrix.features)
    pca = fit_pca(values, labels)
    scores = pca.retained_scores()
    distances = euclidean_distance_matrix(scores)
    tree = ClusterTree(
        merges=linkage_matrix(scores, method=linkage), labels=matrix.workloads
    )

    representative: Dict[str, int] = {}
    cohesion: Dict[str, float] = {}
    label_list = list(matrix.workloads)
    for base, variant_names in aggregates.items():
        indices = [label_list.index(v) for v in variant_names]
        weights = np.array(
            [_input_weight(base, v) for v in variant_names], dtype=float
        )
        weights /= weights.sum()
        aggregate_point = (scores[indices] * weights[:, None]).sum(axis=0)
        gaps = np.linalg.norm(scores[indices] - aggregate_point, axis=1)
        best = int(np.argmin(gaps))
        representative[base] = int(variant_names[best].rsplit("#", 1)[1])
        sub = distances[np.ix_(indices, indices)]
        cohesion[base] = float(sub.max())
    return InputSetAnalysis(
        tree=tree,
        representative=representative,
        variance_covered=pca.cumulative_variance(),
        n_components=pca.kaiser_components,
        input_cohesion=cohesion,
        distances=distances,
        labels=matrix.workloads,
    )


def _lookup(name: str) -> WorkloadSpec:
    from repro.workloads.spec import get_workload

    return get_workload(name)


def _input_weight(base: str, variant_name: str) -> float:
    spec = _lookup(base)
    index = int(variant_name.rsplit("#", 1)[1])
    for input_set in spec.input_sets:
        if input_set.index == index:
            return input_set.weight
    raise AnalysisError(f"{base} has no input set {index}")
