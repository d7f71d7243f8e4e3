"""Agglomerative hierarchical clustering, implemented from scratch.

The paper clusters benchmarks by Euclidean distance in PC space and
reads representative subsets off the dendrogram at a chosen linkage
distance (Section III / IV-A).  This module implements the standard
Lance–Williams agglomerative algorithm with single, complete, average
and Ward linkage, producing a SciPy-compatible linkage matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.stats.distance import euclidean_distance_matrix

__all__ = [
    "Linkage",
    "linkage_matrix",
    "ClusterTree",
    "cut_at_distance",
    "cut_into_clusters",
    "representatives",
]


class Linkage(enum.Enum):
    """Inter-cluster distance definition."""

    SINGLE = "single"
    COMPLETE = "complete"
    AVERAGE = "average"
    WARD = "ward"


def linkage_matrix(
    points: np.ndarray,
    method: Linkage = Linkage.AVERAGE,
    precomputed: bool = False,
) -> np.ndarray:
    """Agglomerate points into a linkage matrix.

    Parameters
    ----------
    points:
        Samples x features matrix, or a square distance matrix when
        ``precomputed`` is set.
    method:
        Linkage definition; the paper's dendrograms use distances
        between program characteristics, for which average linkage is
        the conventional choice.
    precomputed:
        Interpret ``points`` as a pairwise distance matrix.

    Returns
    -------
    numpy.ndarray
        Shape ``(n - 1, 4)``; row ``t`` holds ``[a, b, dist, size]`` for
        the merge at step ``t``, with leaf ids ``0..n-1`` and merged
        cluster ``t`` receiving id ``n + t`` (SciPy convention).
    """
    if precomputed:
        distances = np.array(points, dtype=float)
        if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
            raise AnalysisError("precomputed distances must be a square matrix")
    else:
        distances = euclidean_distance_matrix(points)
    n = distances.shape[0]
    if n < 2:
        raise AnalysisError("clustering needs at least two points")

    ward = method is Linkage.WARD
    # Ward's Lance-Williams update operates on squared distances.
    work = distances ** 2 if ward else distances.copy()
    np.fill_diagonal(work, np.inf)

    active = list(range(n))            # positions of live clusters in `work`
    ids = list(range(n))               # current cluster id at each position
    sizes = np.ones(n, dtype=float)
    merges = np.empty((n - 1, 4), dtype=float)
    distance_evals = 0

    with span("cluster.linkage", method=method.value, n=n):
        for step in range(n - 1):
            # Find the closest active pair.
            sub = work[np.ix_(active, active)]
            flat = int(np.argmin(sub))
            i_pos, j_pos = divmod(flat, len(active))
            if i_pos > j_pos:
                i_pos, j_pos = j_pos, i_pos
            a, b = active[i_pos], active[j_pos]
            dist = work[a, b]
            merged_dist = float(np.sqrt(dist)) if ward else float(dist)

            size = sizes[a] + sizes[b]
            merges[step] = (
                min(ids[i_pos], ids[j_pos]),
                max(ids[i_pos], ids[j_pos]),
                merged_dist,
                size,
            )

            # Lance-Williams distance update of every other active cluster
            # to the merged cluster, stored in slot `a`.
            distance_evals += len(active) - 2
            for pos in range(len(active)):
                if pos in (i_pos, j_pos):
                    continue
                k = active[pos]
                d_ka, d_kb = work[k, a], work[k, b]
                if method is Linkage.SINGLE:
                    new = min(d_ka, d_kb)
                elif method is Linkage.COMPLETE:
                    new = max(d_ka, d_kb)
                elif method is Linkage.AVERAGE:
                    new = (sizes[a] * d_ka + sizes[b] * d_kb) / size
                else:  # WARD on squared distances
                    total = sizes[k] + size
                    new = (
                        (sizes[a] + sizes[k]) * d_ka
                        + (sizes[b] + sizes[k]) * d_kb
                        - sizes[k] * work[a, b]
                    ) / total
                work[a, k] = work[k, a] = new
            sizes[a] = size
            ids[i_pos] = n + step
            del active[j_pos], ids[j_pos]
            work[b, :] = np.inf
            work[:, b] = np.inf

    obs_metrics.incr("cluster.distance_evals", distance_evals)
    return merges


def cut_at_distance(merges: np.ndarray, threshold: float) -> np.ndarray:
    """Flat clusters from cutting the dendrogram at a linkage distance.

    Merges with distance <= ``threshold`` are applied; the result maps
    each leaf to a 0-based cluster index.
    """
    n = merges.shape[0] + 1
    parent = list(range(n + merges.shape[0]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step, (a, b, dist, _size) in enumerate(merges):
        node = n + step
        if dist <= threshold:
            parent[find(int(a))] = node
            parent[find(int(b))] = node
    roots: Dict[int, int] = {}
    labels = np.empty(n, dtype=int)
    for leaf in range(n):
        root = find(leaf)
        labels[leaf] = roots.setdefault(root, len(roots))
    return labels


def cut_into_clusters(merges: np.ndarray, k: int) -> np.ndarray:
    """Flat clusters with exactly ``k`` groups.

    Equivalent to drawing the paper's vertical line between the
    ``(n-k)``-th and ``(n-k+1)``-th merge heights.
    """
    n = merges.shape[0] + 1
    if not 1 <= k <= n:
        raise AnalysisError(f"k must be in [1, {n}], got {k}")
    if k == n:
        return np.arange(n)
    threshold = float(merges[n - k - 1, 2])
    labels = cut_at_distance(merges, threshold)
    if labels.max() + 1 != k:
        # Tied merge heights can over-merge; fall back to applying
        # exactly the first n-k merges.
        labels = _cut_by_steps(merges, n - k)
    return labels


def _cut_by_steps(merges: np.ndarray, steps: int) -> np.ndarray:
    n = merges.shape[0] + 1
    parent = list(range(n + merges.shape[0]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for step in range(steps):
        a, b = int(merges[step, 0]), int(merges[step, 1])
        node = n + step
        parent[find(a)] = node
        parent[find(b)] = node
    roots: Dict[int, int] = {}
    labels = np.empty(n, dtype=int)
    for leaf in range(n):
        labels[leaf] = roots.setdefault(find(leaf), len(roots))
    return labels


def representatives(
    assignment: np.ndarray,
    distances: np.ndarray,
    labels: Sequence[str],
) -> List[str]:
    """One representative per cluster: the medoid.

    Following Section IV-A: for clusters with more than two members, the
    benchmark closest to the rest of its cluster (smallest mean linkage
    distance) represents the cluster.  Ties break lexicographically for
    determinism.
    """
    assignment = np.asarray(assignment)
    n = len(labels)
    if assignment.shape != (n,) or distances.shape != (n, n):
        raise AnalysisError("assignment/distances/labels shapes disagree")
    chosen: List[str] = []
    for cluster in range(int(assignment.max()) + 1):
        members = np.nonzero(assignment == cluster)[0]
        if members.size == 1:
            chosen.append(labels[int(members[0])])
            continue
        sub = distances[np.ix_(members, members)]
        means = sub.sum(axis=1) / (members.size - 1)
        best = np.min(means)
        candidates = sorted(
            labels[int(members[i])]
            for i in range(members.size)
            if means[i] <= best + 1e-12
        )
        chosen.append(candidates[0])
    return chosen


@dataclass(frozen=True)
class ClusterTree:
    """A labelled dendrogram: linkage matrix plus leaf names."""

    merges: np.ndarray
    labels: Tuple[str, ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if self.merges.shape != (n - 1, 4):
            raise AnalysisError(
                f"linkage matrix shape {self.merges.shape} does not match "
                f"{n} labels"
            )

    @classmethod
    def from_points(
        cls,
        points: np.ndarray,
        labels: Sequence[str],
        method: Linkage = Linkage.AVERAGE,
    ) -> "ClusterTree":
        return cls(
            merges=linkage_matrix(points, method=method), labels=tuple(labels)
        )

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @property
    def heights(self) -> np.ndarray:
        """Merge distances in agglomeration order."""
        return self.merges[:, 2]

    def clusters_at(self, threshold: float) -> List[List[str]]:
        """Named flat clusters below a linkage-distance threshold."""
        assignment = cut_at_distance(self.merges, threshold)
        return self._named(assignment)

    def clusters_into(self, k: int) -> List[List[str]]:
        """Named flat clusters when cut into exactly ``k`` groups."""
        assignment = cut_into_clusters(self.merges, k)
        return self._named(assignment)

    def _named(self, assignment: np.ndarray) -> List[List[str]]:
        groups: Dict[int, List[str]] = {}
        for label, cluster in zip(self.labels, assignment):
            groups.setdefault(int(cluster), []).append(label)
        return [groups[c] for c in sorted(groups)]

    def cophenetic_distance(self, first: str, second: str) -> float:
        """Linkage distance at which two leaves are first merged."""
        try:
            i = self.labels.index(first)
            j = self.labels.index(second)
        except ValueError as exc:
            raise AnalysisError(f"unknown leaf: {exc}") from None
        if i == j:
            return 0.0
        n = self.n_leaves
        membership: Dict[int, int] = {}
        # Replay the merges tracking the two leaves' current clusters.
        current = {i: i, j: j}
        for step, (a, b, dist, _size) in enumerate(self.merges):
            node = n + step
            a, b = int(a), int(b)
            touched = [leaf for leaf, c in current.items() if c in (a, b)]
            for leaf in touched:
                current[leaf] = node
            if current[i] == current[j]:
                return float(dist)
        raise AnalysisError("leaves never merged; malformed linkage matrix")

    def leaf_order(self) -> List[str]:
        """Leaves in dendrogram order (left-to-right traversal)."""
        n = self.n_leaves
        children: Dict[int, Tuple[int, int]] = {}
        for step, (a, b, _dist, _size) in enumerate(self.merges):
            children[n + step] = (int(a), int(b))
        order: List[str] = []
        stack = [n + len(self.merges) - 1]
        while stack:
            node = stack.pop()
            if node < n:
                order.append(self.labels[node])
            else:
                left, right = children[node]
                stack.append(right)
                stack.append(left)
        return order

    def most_distinct_leaf(self) -> str:
        """The leaf that joins the rest of the tree last.

        This is how the paper identifies e.g. mcf as having "the most
        distinct performance features": it is the last benchmark to be
        absorbed into the final cluster.
        """
        last = self.merges[-1]
        n = self.n_leaves
        for side in (int(last[0]), int(last[1])):
            if side < n:
                return self.labels[side]
        # Both sides are internal: report the shallower subtree's most
        # isolated leaf by recursing into the side with fewer leaves.
        children: Dict[int, Tuple[int, int]] = {
            n + step: (int(a), int(b))
            for step, (a, b, _d, _s) in enumerate(self.merges)
        }

        def leaves_under(node: int) -> List[int]:
            if node < n:
                return [node]
            left, right = children[node]
            return leaves_under(left) + leaves_under(right)

        left, right = children[n + len(self.merges) - 1]
        smaller = min((leaves_under(left), leaves_under(right)), key=len)
        if len(smaller) == 1:
            return self.labels[smaller[0]]
        # Within the smaller side, pick the leaf with the largest merge
        # height along its path — the most isolated one.
        sub = smaller
        best_leaf, best_height = sub[0], -1.0
        for leaf in sub:
            height = self._first_merge_height(leaf)
            if height > best_height:
                best_leaf, best_height = leaf, height
        return self.labels[best_leaf]

    def _first_merge_height(self, leaf: int) -> float:
        for a, b, dist, _size in self.merges:
            if int(a) == leaf or int(b) == leaf:
                return float(dist)
        raise AnalysisError("leaf never merged; malformed linkage matrix")
