"""The end-to-end similarity pipeline (Section III).

``counters -> standardize -> PCA (Kaiser) -> Euclidean distances in PC
space -> agglomerative clustering``, bundled as
:func:`analyze_similarity`, which every downstream analysis builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError
from repro.obs.trace import span
from repro.perf.counters import SIMILARITY_METRICS, Metric
from repro.perf.dataset import FeatureMatrix, build_feature_matrix
from repro.perf.profiler import Profiler
from repro.stats.cluster import ClusterTree, Linkage, representatives
from repro.stats.dendrogram import Dendrogram, render_dendrogram
from repro.stats.distance import euclidean_distance_matrix
from repro.stats.pca import PcaResult, fit_pca
from repro.stats.preprocess import drop_constant_columns
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec

__all__ = ["SimilarityResult", "analyze_similarity"]


@dataclass(frozen=True)
class SimilarityResult:
    """Everything the similarity pipeline produces.

    Attributes
    ----------
    matrix:
        The raw feature matrix (workloads x metric@machine).
    pca:
        Fitted PCA over the standardized matrix.
    n_components:
        Number of PCs used for distances/clustering (Kaiser by default).
    scores:
        PC-space coordinates actually used, shape ``(n, n_components)``.
    distances:
        Pairwise Euclidean distances in PC space.
    tree:
        The dendrogram.
    """

    matrix: FeatureMatrix
    pca: PcaResult
    n_components: int
    scores: np.ndarray
    distances: np.ndarray
    tree: ClusterTree

    @property
    def workloads(self) -> Tuple[str, ...]:
        return self.matrix.workloads

    @property
    def variance_covered(self) -> float:
        """Fraction of variance covered by the retained components."""
        return self.pca.cumulative_variance(self.n_components)

    def dendrogram(self) -> Dendrogram:
        """Text rendering of the cluster tree."""
        return render_dendrogram(self.tree)

    def representatives_for(self, k: int) -> list:
        """One representative benchmark per cluster when cut into k."""
        from repro.stats.cluster import cut_into_clusters

        assignment = cut_into_clusters(self.tree.merges, k)
        return representatives(assignment, self.distances, list(self.workloads))

    def distance_between(self, first: str, second: str) -> float:
        """PC-space Euclidean distance between two workloads."""
        workloads = list(self.workloads)
        try:
            i, j = workloads.index(first), workloads.index(second)
        except ValueError as exc:
            raise AnalysisError(f"unknown workload: {exc}") from None
        return float(self.distances[i, j])


def analyze_similarity(
    workloads: Iterable[Union[str, WorkloadSpec]],
    machines: Optional[Iterable[Union[str, MachineConfig]]] = None,
    metrics: Sequence[Metric] = SIMILARITY_METRICS,
    linkage: Linkage = Linkage.AVERAGE,
    n_components: Optional[int] = None,
    profiler: Optional[Profiler] = None,
) -> SimilarityResult:
    """Run the full Section III pipeline.

    Parameters
    ----------
    workloads:
        Workload names or specs (rows of the analysis).
    machines:
        Machines to profile on; defaults to the seven Table IV machines.
    metrics:
        Counter metrics to use; defaults to the full Table III set
        (pass e.g. :data:`repro.perf.counters.BRANCH_METRICS` for the
        Figure 9 branch-only analysis).
    linkage:
        Clustering linkage method.
    n_components:
        Number of PCs to keep; ``None`` applies the Kaiser criterion.
    """
    with span("similarity.profile"):
        matrix = build_feature_matrix(
            workloads, machines=machines, metrics=metrics, profiler=profiler
        )
    with span("similarity.pca"):
        values, labels = drop_constant_columns(matrix.values, matrix.features)
        pca = fit_pca(values, labels)
    k = n_components if n_components is not None else pca.kaiser_components
    if not 1 <= k <= pca.n_components:
        raise AnalysisError(
            f"n_components must be in [1, {pca.n_components}], got {k}"
        )
    with span("similarity.cluster", n_components=k, linkage=linkage.value):
        scores = pca.retained_scores(k)
        distances = euclidean_distance_matrix(scores)
        tree = ClusterTree(
            merges=_linkage(scores, linkage), labels=matrix.workloads
        )
    return SimilarityResult(
        matrix=matrix,
        pca=pca,
        n_components=k,
        scores=scores,
        distances=distances,
        tree=tree,
    )


def _linkage(scores: np.ndarray, method: Linkage) -> np.ndarray:
    from repro.stats.cluster import linkage_matrix

    return linkage_matrix(scores, method=method)
