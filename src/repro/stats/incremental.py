"""Incremental statistical machinery for the streaming analysis engine.

The batch pipeline (``fit_pca`` → ``kmeans`` → representative
selection) recomputes everything from the full feature matrix whenever
the population changes.  At campaign scale that recomputation dominates
the fold stage, and it makes "where does my new workload land?" queries
as expensive as the whole analysis.  This module provides the
incremental counterparts:

* :class:`StreamingMoments` — Welford mean/variance accumulators, the
  exact standardization state that batch ``standardize`` derives from
  the full matrix.
* :class:`IncrementalPca` — maintains the feature correlation matrix
  *exactly* through rank-one Gram updates, and the eigendecomposition
  *approximately* through first-order perturbation updates with a
  tracked drift bound.  When the bound exceeds the tolerance the
  eigensystem is refactorized exactly — by calling :func:`fit_pca` on
  the full matrix — so the fallback is bit-comparable with the batch
  path by construction.
* :class:`IncrementalKMeans` — Lloyd iterations seeded from the
  previous assignment (no restarts), reporting exactly which clusters
  changed membership.
* :func:`reselect_representatives` — per-cluster representative
  selection that only re-scores clusters whose membership changed.

Accuracy contract
-----------------

Between refactorizations the engine guarantees that retained scores and
loadings stay within :data:`SCORE_TOLERANCE` of a batch :func:`fit_pca`
over the same matrix, enforced by keeping the *drift bound* — the
Frobenius norm
of the off-diagonal residual ``Vᵀ C V − Λ``, normalized by ``‖C‖_F`` —
below :data:`DRIFT_TOLERANCE`.  The residual is computed from the
exactly-maintained correlation matrix, so the bound is a measured
quantity, not an estimate: whenever it exceeds the tolerance the next
:meth:`IncrementalPca.append` reports ``needs_refactorization`` and the
caller refactorizes from the stored matrix.  ``tests/test_incremental``
drives randomized append sequences against ``fit_pca`` to enforce both
halves of the contract.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.kmeans import KMeansResult, kmeans
from repro.stats.pca import PcaResult, fit_pca

__all__ = [
    "DRIFT_TOLERANCE",
    "SCORE_TOLERANCE",
    "resolve_analysis_mode",
    "StreamingMoments",
    "IncrementalPca",
    "IncrementalKMeans",
    "reselect_representatives",
]

#: Drift bound above which the approximate eigensystem is discarded and
#: refactorized exactly from the full matrix.  The bound is the
#: Frobenius norm of the off-diagonal residual ``Vᵀ C V − Λ`` over
#: ``max(1, ‖C‖_F)`` — zero immediately after a refactorization.
DRIFT_TOLERANCE = 1e-4

#: Documented agreement between the incremental eigensystem and a batch
#: ``fit_pca`` over the same matrix while the drift bound holds: the
#: *retained* (Kaiser) eigenvalues, loadings and scores agree within
#: this absolute tolerance (retained scores are O(1)–O(10) in
#: standardized units; tail components with near-degenerate eigenvalues
#: rotate freely and carry no signal, so they are outside the
#: contract).
SCORE_TOLERANCE = 1e-2

#: Relative spectral-gap floor below which first-order eigenvector
#: corrections are suppressed (near-degenerate pairs rotate freely; the
#: residual drift bound catches any real error this introduces).
_GAP_FLOOR = 1e-9


def resolve_analysis_mode(mode: None = None) -> str:
    """The one engine every growing-population fold uses."""
    return "incremental"


class StreamingMoments:
    """Welford mean/variance accumulators over feature vectors.

    Maintains the exact per-feature mean and (population) variance of
    every row seen so far, in one O(d) pass per append — the streaming
    form of what ``standardize`` computes from the full matrix.
    """

    def __init__(self, n_features: int) -> None:
        if n_features < 1:
            raise AnalysisError("need at least one feature")
        self.n = 0
        self.mean = np.zeros(n_features, dtype=float)
        self._m2 = np.zeros(n_features, dtype=float)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "StreamingMoments":
        """Accumulators resynchronized exactly from a full matrix."""
        matrix = np.asarray(matrix, dtype=float)
        moments = cls(matrix.shape[1])
        moments.n = matrix.shape[0]
        moments.mean = matrix.mean(axis=0)
        moments._m2 = ((matrix - moments.mean) ** 2).sum(axis=0)
        return moments

    def update(self, row: np.ndarray) -> None:
        """Fold one feature vector into the running moments (Welford)."""
        row = np.asarray(row, dtype=float)
        if row.shape != self.mean.shape:
            raise AnalysisError(
                f"expected a row of {self.mean.shape[0]} features, "
                f"got shape {row.shape}"
            )
        self.n += 1
        delta = row - self.mean
        self.mean = self.mean + delta / self.n
        self._m2 = self._m2 + delta * (row - self.mean)

    @property
    def variance(self) -> np.ndarray:
        """Population variance (``ddof=0``, matching ``standardize``)."""
        if self.n < 1:
            return np.zeros_like(self._m2)
        return np.maximum(self._m2 / self.n, 0.0)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    @property
    def safe_std(self) -> np.ndarray:
        """Std with zero-variance features mapped to 1 (``standardize``)."""
        std = self.std
        return np.where(std > 0.0, std, 1.0)

    def standardize(self, rows: np.ndarray) -> np.ndarray:
        """Z-score rows against the streaming moments."""
        return (np.asarray(rows, dtype=float) - self.mean) / self.safe_std


def _apply_sign_convention(vectors: np.ndarray) -> np.ndarray:
    """fit_pca's deterministic sign: largest-|loading| entry positive."""
    vectors = vectors.copy()
    for k in range(vectors.shape[1]):
        pivot = np.argmax(np.abs(vectors[:, k]))
        if vectors[pivot, k] < 0.0:
            vectors[:, k] = -vectors[:, k]
    return vectors


class IncrementalPca:
    """PCA of the feature correlation matrix, updated row by row.

    Two layers of state with different exactness guarantees:

    * **Sufficient statistics** — Welford moments and the Gram matrix
      ``Σ x xᵀ`` — are maintained *exactly* (one rank-one update per
      append), so the correlation matrix itself never drifts.
    * **The eigensystem** is updated to *first order* per append
      (project the correlation delta onto the current basis, correct
      eigenvalues by the diagonal and eigenvectors by the gap-weighted
      off-diagonal, re-orthonormalize by QR), and the measured residual
      of that approximation is the drift bound.

    When :attr:`needs_refactorization` turns true the caller passes the
    full matrix to :meth:`refactorize`, which delegates to
    :func:`fit_pca` verbatim — the exact fallback is the batch path, so
    its output is bit-comparable by construction.
    """

    def __init__(
        self,
        tolerance: float = DRIFT_TOLERANCE,
        feature_labels: Optional[Tuple[str, ...]] = None,
    ) -> None:
        if tolerance < 0.0:
            raise AnalysisError(f"tolerance must be >= 0, got {tolerance}")
        self.tolerance = float(tolerance)
        self.feature_labels = feature_labels
        self.moments: Optional[StreamingMoments] = None
        self._gram: Optional[np.ndarray] = None
        self._corr: Optional[np.ndarray] = None
        self._eigenvalues: Optional[np.ndarray] = None  # full, descending
        self._vectors: Optional[np.ndarray] = None  # full d x d basis
        self._exact: Optional[PcaResult] = None
        self.drift = float("inf")
        self.refactorizations = 0
        self.appends_since_refactorization = 0

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return 0 if self.moments is None else self.moments.n

    @property
    def n_features(self) -> int:
        return 0 if self.moments is None else self.moments.mean.shape[0]

    @property
    def fitted(self) -> bool:
        return self._vectors is not None

    @property
    def needs_refactorization(self) -> bool:
        """True when the drift bound exceeds the tolerance (or no fit)."""
        return not self.fitted or self.drift > self.tolerance

    def _correlation(self) -> np.ndarray:
        """The exact correlation matrix from the sufficient statistics.

        ``C = D⁻¹ (G/n − μμᵀ) D⁻¹`` with ``D = diag(safe_std)`` — the
        algebraic identity for ``ZᵀZ/n`` over the standardized matrix,
        so it tracks ``fit_pca``'s correlation up to float rounding.
        """
        assert self.moments is not None and self._gram is not None
        n = self.moments.n
        mean = self.moments.mean
        scale = self.moments.safe_std
        covariance = self._gram / n - np.outer(mean, mean)
        correlation = covariance / np.outer(scale, scale)
        # Exact-zero rows for constant features, like standardize().
        constant = self.moments.std <= 0.0
        if constant.any():
            correlation[constant, :] = 0.0
            correlation[:, constant] = 0.0
        return (correlation + correlation.T) / 2.0

    # ------------------------------------------------------------------
    # fitting / appending
    # ------------------------------------------------------------------

    def refactorize(self, matrix: np.ndarray) -> PcaResult:
        """Exact refit from the full matrix (the batch fallback).

        Delegates to :func:`fit_pca`, resynchronizes every accumulator
        from the matrix, and zeroes the drift bound.  The returned
        result *is* the batch result, bit for bit.
        """
        matrix = np.asarray(matrix, dtype=float)
        with span(
            "analysis.refactorize",
            rows=matrix.shape[0],
            drift=self.drift if np.isfinite(self.drift) else -1.0,
        ):
            result = fit_pca(matrix, self.feature_labels)
            self.moments = StreamingMoments.from_matrix(matrix)
            self._gram = matrix.T @ matrix
            self._corr = self._correlation()
            eigenvalues, vectors = np.linalg.eigh(self._corr)
            order = np.argsort(eigenvalues)[::-1]
            self._eigenvalues = eigenvalues[order]
            self._vectors = vectors[:, order]
            self._exact = result
            self.drift = 0.0
            self.refactorizations += 1
            self.appends_since_refactorization = 0
            obs_metrics.incr("analysis.refactorizations")
            obs_metrics.set_gauge("analysis.drift", 0.0)
        return result

    def append(self, row: np.ndarray) -> None:
        """Fold one new sample into the running state.

        Sufficient statistics update exactly (rank-one Gram update);
        the eigensystem updates to first order and the measured
        residual becomes the new drift bound.  Callers check
        :attr:`needs_refactorization` afterwards and, when set, pass
        the full matrix to :meth:`refactorize`.
        """
        row = np.asarray(row, dtype=float)
        if self.moments is None:
            raise AnalysisError(
                "append before fit: refactorize over an initial matrix "
                "first"
            )
        if row.shape != (self.n_features,):
            raise AnalysisError(
                f"expected a row of {self.n_features} features, "
                f"got shape {row.shape}"
            )
        self.moments.update(row)
        assert self._gram is not None
        self._gram += np.outer(row, row)  # the rank-one update
        self._exact = None
        self.appends_since_refactorization += 1
        obs_metrics.incr("analysis.rows_appended")
        if not self.fitted:
            return
        updated = self._correlation()
        assert self._corr is not None
        assert self._vectors is not None and self._eigenvalues is not None
        delta = updated - self._corr
        basis = self._vectors
        projected = basis.T @ delta @ basis
        eigenvalues = self._eigenvalues + np.diag(projected)
        # First-order eigenvector correction, gap-weighted; directions
        # with a (near-)degenerate gap are left unrotated — the
        # residual below measures whatever error that leaves behind.
        gaps = self._eigenvalues[None, :] - self._eigenvalues[:, None]
        scale = max(1.0, float(np.abs(self._eigenvalues).max()))
        with np.errstate(divide="ignore", invalid="ignore"):
            weights = np.where(
                np.abs(gaps) > _GAP_FLOOR * scale, projected / gaps, 0.0
            )
        np.fill_diagonal(weights, 0.0)
        vectors = basis + basis @ weights
        # Re-orthonormalize (first-order updates lose orthogonality at
        # second order) and re-sort by the updated Rayleigh quotients.
        vectors, triangular = np.linalg.qr(vectors)
        vectors = vectors * np.where(np.diag(triangular) < 0.0, -1.0, 1.0)
        residual = vectors.T @ updated @ vectors
        eigenvalues = np.diag(residual).copy()
        order = np.argsort(eigenvalues, kind="stable")[::-1]
        self._vectors = vectors[:, order]
        self._eigenvalues = eigenvalues[order]
        self._corr = updated
        off_diagonal = residual - np.diag(np.diag(residual))
        norm = max(1.0, float(np.linalg.norm(updated)))
        self.drift = float(np.linalg.norm(off_diagonal)) / norm
        obs_metrics.set_gauge("analysis.drift", self.drift)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _max_components(self) -> int:
        return max(1, min(self.n_samples - 1, self.n_features))

    def result(self, matrix: np.ndarray) -> PcaResult:
        """The current PCA over ``matrix`` (all rows seen so far).

        Returns the cached exact :func:`fit_pca` result when no append
        happened since the last refactorization; otherwise assembles
        the approximate result from the running eigensystem, within
        :data:`SCORE_TOLERANCE` of the batch fit.
        """
        if self._exact is not None:
            return self._exact
        if not self.fitted:
            raise AnalysisError("PCA state is not fitted yet")
        assert self._vectors is not None and self._eigenvalues is not None
        assert self.moments is not None
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (self.n_samples, self.n_features):
            raise AnalysisError(
                f"expected the full {self.n_samples} x {self.n_features} "
                f"matrix, got shape {matrix.shape}"
            )
        k = self._max_components()
        eigenvalues = np.maximum(self._eigenvalues[:k], 0.0)
        vectors = _apply_sign_convention(self._vectors[:, :k])
        scores = self.moments.standardize(matrix) @ vectors
        total = eigenvalues.sum()
        ratio = (
            eigenvalues / total if total > 0.0 else np.zeros_like(eigenvalues)
        )
        kaiser = int((eigenvalues >= 1.0).sum())
        kaiser = max(1, min(kaiser, k))
        return PcaResult(
            eigenvalues=eigenvalues,
            explained_variance_ratio=ratio,
            loadings=vectors.T,
            scores=scores,
            kaiser_components=kaiser,
            feature_labels=self.feature_labels,
        )

    def transform(self, rows: np.ndarray, n_components: int) -> np.ndarray:
        """PC coordinates of new rows under the current basis."""
        if not self.fitted:
            raise AnalysisError("PCA state is not fitted yet")
        assert self._vectors is not None and self.moments is not None
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        k = min(n_components, self._max_components())
        vectors = _apply_sign_convention(self._vectors[:, :k])
        return self.moments.standardize(rows) @ vectors


class IncrementalKMeans:
    """Lloyd iterations seeded from the previous assignment.

    The batch path restarts k-means++ several times per fit; the
    incremental path assumes the previous clustering is a good seed —
    new points join their nearest centroid and Lloyd iterations run
    until the assignment stabilizes.  :meth:`update` reports exactly
    which clusters changed membership, which is what lets subset
    re-selection skip the untouched ones.
    """

    def __init__(self, k: int, seed: int = 2017) -> None:
        if k < 1:
            raise AnalysisError(f"k must be >= 1, got {k}")
        self.k = k
        self.seed = seed
        self.centroids: Optional[np.ndarray] = None
        self.assignment: Optional[np.ndarray] = None
        self.inertia = float("nan")

    @property
    def fitted(self) -> bool:
        return self.centroids is not None

    def fit(self, points: np.ndarray) -> KMeansResult:
        """Exact batch fit (k-means++ with restarts) seeding the state."""
        result = kmeans(points, min(self.k, points.shape[0]), seed=self.seed)
        self.centroids = result.centroids.copy()
        self.assignment = result.assignment.copy()
        self.inertia = result.inertia
        return result

    def seed_from(self, result: KMeansResult) -> None:
        """Adopt an existing clustering as the incremental seed."""
        self.centroids = result.centroids.copy()
        self.assignment = result.assignment.copy()
        self.inertia = result.inertia

    def update(
        self, points: np.ndarray, max_iterations: int = 100
    ) -> Tuple[KMeansResult, frozenset]:
        """Re-cluster ``points`` starting from the previous state.

        ``points`` may have grown (appended rows) and existing rows may
        have moved (PCA drift).  Returns the refreshed clustering and
        the set of cluster indices whose membership changed — clusters
        absent from that set kept exactly their previous member rows.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise AnalysisError(
                f"expected a 2-D matrix, got shape {points.shape}"
            )
        if not self.fitted:
            result = self.fit(points)
            return result, frozenset(range(result.k))
        assert self.centroids is not None and self.assignment is not None
        n = points.shape[0]
        previous = self.assignment
        if previous.shape[0] > n:
            raise AnalysisError(
                f"points shrank from {previous.shape[0]} to {n} rows; "
                "incremental k-means is append-only"
            )
        k = self.centroids.shape[0]
        centroids = self.centroids
        if centroids.shape[1] != points.shape[1]:
            # The PC basis changed dimension (e.g. a refactorization
            # retained a different component count): reproject the seed
            # centroids from the previous assignment on the new points.
            centroids = np.stack(
                [
                    points[: previous.shape[0]][previous == cluster].mean(axis=0)
                    if (previous == cluster).any()
                    else points[0]
                    for cluster in range(k)
                ]
            )
        assignment = previous
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            distances = (
                (points ** 2).sum(axis=1)[:, None]
                + (centroids ** 2).sum(axis=1)[None, :]
                - 2.0 * points @ centroids.T
            )
            np.maximum(distances, 0.0, out=distances)
            new_assignment = distances.argmin(axis=1)
            for cluster in range(k):
                if not (new_assignment == cluster).any():
                    worst = int(
                        distances[np.arange(n), new_assignment].argmax()
                    )
                    new_assignment[worst] = cluster
            if (
                new_assignment.shape == assignment.shape
                and (new_assignment == assignment).all()
                and iterations > 1
            ):
                break
            assignment = new_assignment
            for cluster in range(k):
                members = points[assignment == cluster]
                if members.size:
                    centroids[cluster] = members.mean(axis=0)
        inertia = float(((points - centroids[assignment]) ** 2).sum())
        changed: Set[int] = set()
        for cluster in range(k):
            old_members = set(np.nonzero(previous == cluster)[0].tolist())
            new_members = set(np.nonzero(assignment == cluster)[0].tolist())
            if old_members != new_members:
                changed.add(cluster)
        self.centroids = centroids
        self.assignment = assignment
        self.inertia = inertia
        result = KMeansResult(
            centroids=centroids.copy(),
            assignment=assignment.copy(),
            inertia=inertia,
            iterations=iterations,
        )
        return result, frozenset(changed)


def reselect_representatives(
    points: np.ndarray,
    result: KMeansResult,
    labels: Sequence[str],
    previous: Optional[dict] = None,
    changed: Optional[frozenset] = None,
) -> Tuple[List[str], dict]:
    """Per-cluster representatives, re-scoring only changed clusters.

    ``previous`` maps cluster index to its cached representative label;
    clusters not in ``changed`` reuse the cache instead of re-scoring
    their members.  Pass ``previous=None`` (or ``changed=None``) to
    score everything — the batch-equivalent path.

    Uses the exact tie-break of :meth:`KMeansResult.representatives`
    (minimal ``(distance, label)``), so a full re-scan reproduces the
    batch selection bit for bit.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[0] != len(labels):
        raise AnalysisError("labels must match the number of points")
    cache = dict(previous or {})
    rescore_all = previous is None or changed is None
    chosen: List[str] = []
    representatives: dict = {}
    rescored = 0
    for cluster in range(result.k):
        members = np.nonzero(result.assignment == cluster)[0]
        if members.size == 0:
            continue
        if not rescore_all and cluster not in changed and cluster in cache:
            representatives[cluster] = cache[cluster]
            chosen.append(cache[cluster])
            continue
        gaps = np.linalg.norm(
            points[members] - result.centroids[cluster], axis=1
        )
        order = np.argsort(gaps, kind="stable")
        best = min((float(gaps[i]), labels[int(members[i])]) for i in order)
        representatives[cluster] = best[1]
        chosen.append(best[1])
        rescored += 1
    obs_metrics.incr("analysis.clusters_rescored", rescored)
    return chosen, representatives
