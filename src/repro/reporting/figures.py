"""Figure data containers and ASCII scatter rendering.

Benchmarks regenerate the paper's figures as data series; for terminal
inspection :func:`render_scatter` draws a coarse ASCII scatter plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ScatterSeries", "BarSeries", "render_scatter"]


@dataclass(frozen=True)
class ScatterSeries:
    """One labelled point set of a scatter figure."""

    name: str
    points: Tuple[Tuple[str, float, float], ...]  # (label, x, y)

    @classmethod
    def from_dict(
        cls, name: str, mapping: Dict[str, Tuple[float, float]]
    ) -> "ScatterSeries":
        return cls(
            name=name,
            points=tuple((k, float(x), float(y)) for k, (x, y) in mapping.items()),
        )

    @property
    def xs(self) -> np.ndarray:
        return np.array([p[1] for p in self.points])

    @property
    def ys(self) -> np.ndarray:
        return np.array([p[2] for p in self.points])


@dataclass(frozen=True)
class BarSeries:
    """One labelled bar group of a bar figure."""

    name: str
    bars: Tuple[Tuple[str, float], ...]  # (label, value)

    @property
    def values(self) -> np.ndarray:
        return np.array([b[1] for b in self.bars])


def render_scatter(
    series: Sequence[ScatterSeries],
    width: int = 68,
    height: int = 22,
    x_label: str = "PC1",
    y_label: str = "PC2",
) -> str:
    """ASCII scatter plot; each series gets its own marker."""
    if not series:
        raise ConfigurationError("need at least one series")
    markers = "ox+*#@%&"
    populated = [s for s in series if len(s.points)]
    if not populated:
        raise ConfigurationError("series contain no points")
    all_x = np.concatenate([s.xs for s in populated])
    all_y = np.concatenate([s.ys for s in populated])
    x_min, x_max = float(all_x.min()), float(all_x.max())
    y_min, y_max = float(all_y.min()), float(all_y.max())
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, s in enumerate(series):
        marker = markers[index % len(markers)]
        for _, x, y in s.points:
            col = int((x - x_min) / x_span * (width - 1))
            row = int((y_max - y) / y_span * (height - 1))
            grid[row][col] = marker

    lines = ["".join(row) for row in grid]
    legend = "   ".join(
        f"{markers[i % len(markers)]} = {s.name}" for i, s in enumerate(series)
    )
    frame = ["+" + "-" * width + "+"]
    frame += ["|" + line + "|" for line in lines]
    frame += ["+" + "-" * width + "+"]
    frame.append(f"x: {x_label} [{x_min:.2f}, {x_max:.2f}]  "
                 f"y: {y_label} [{y_min:.2f}, {y_max:.2f}]")
    frame.append(legend)
    return "\n".join(frame)
