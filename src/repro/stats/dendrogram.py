"""Text dendrogram rendering.

The paper presents similarity as dendrogram plots (Figures 2-4, 7-8,
13).  :func:`render_dendrogram` produces an equivalent text rendering:
leaves listed top-to-bottom in dendrogram order, merges drawn as
brackets annotated with their linkage distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.stats.cluster import ClusterTree

__all__ = ["Dendrogram", "render_dendrogram"]


@dataclass(frozen=True)
class Dendrogram:
    """A rendered dendrogram plus its underlying tree."""

    tree: ClusterTree
    text: str

    def __str__(self) -> str:
        return self.text


def render_dendrogram(tree: ClusterTree, precision: int = 2) -> Dendrogram:
    """Render a :class:`ClusterTree` as an indented text tree.

    Internal nodes print their linkage distance; children are indented
    below.  The vertical order matches :meth:`ClusterTree.leaf_order`.
    """
    n = tree.n_leaves
    children: Dict[int, Tuple[int, int]] = {
        n + step: (int(a), int(b))
        for step, (a, b, _dist, _size) in enumerate(tree.merges)
    }
    heights: Dict[int, float] = {
        n + step: float(dist)
        for step, (_a, _b, dist, _size) in enumerate(tree.merges)
    }
    lines: List[str] = []

    def walk(node: int, prefix: str, connector: str, child_prefix: str) -> None:
        if node < n:
            lines.append(f"{prefix}{connector}{tree.labels[node]}")
            return
        left, right = children[node]
        label = f"[d={heights[node]:.{precision}f}]"
        lines.append(f"{prefix}{connector}{label}")
        walk(left, child_prefix, "├─ ", child_prefix + "│  ")
        walk(right, child_prefix, "└─ ", child_prefix + "   ")

    root = n + len(tree.merges) - 1
    if n == 1:
        lines.append(tree.labels[0])
    else:
        walk(root, "", "", "")
    return Dendrogram(tree=tree, text="\n".join(lines))
