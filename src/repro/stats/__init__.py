"""Statistical machinery: PCA, hierarchical clustering, dendrograms.

Implements the paper's Section III methodology from first principles:
principal component analysis with the Kaiser criterion for component
retention, agglomerative hierarchical clustering over Euclidean
distances in PC space, dendrogram construction/rendering, and the
geometric-mean scoring used for subset validation.
"""

from repro.stats.cluster import (
    ClusterTree,
    Linkage,
    cut_at_distance,
    cut_into_clusters,
    linkage_matrix,
    representatives,
)
from repro.stats.dendrogram import Dendrogram, render_dendrogram
from repro.stats.distance import euclidean_distance_matrix
from repro.stats.pca import PcaResult, fit_pca
from repro.stats.preprocess import drop_constant_columns, standardize
from repro.stats.scoring import geometric_mean, relative_error

__all__ = [
    "ClusterTree",
    "Dendrogram",
    "Linkage",
    "PcaResult",
    "cut_at_distance",
    "cut_into_clusters",
    "drop_constant_columns",
    "euclidean_distance_matrix",
    "fit_pca",
    "geometric_mean",
    "linkage_matrix",
    "relative_error",
    "render_dendrogram",
    "representatives",
    "standardize",
]
