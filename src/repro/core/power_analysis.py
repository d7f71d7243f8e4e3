"""Power-spectrum comparison (Section V-C, Figure 12).

RAPL-style core/LLC/DRAM power is collected for both suites on the
three Intel machines with power models (Skylake, Ivy Bridge,
Broadwell), then projected onto two PCs.  The paper's findings to
reproduce: CPU2017 covers a clearly larger power space, driven by
greater core-power diversity (more compute/SIMD-intensive benchmarks),
while CPU2006's spread is relatively stronger along the DRAM-power
axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.perf.counters import POWER_METRICS
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.stats.hull import hull_area
from repro.stats.pca import PcaResult, fit_pca
from repro.stats.preprocess import drop_constant_columns
from repro.uarch.machine import POWER_MACHINE_NAMES
from repro.workloads.spec import Suite, workloads_in_suite

__all__ = ["PowerSpectrum", "analyze_power_spectrum"]


@dataclass(frozen=True)
class PowerSpectrum:
    """Figure 12: both suites in the 2-PC power space."""

    pca: PcaResult
    points: Dict[str, Tuple[float, float]]
    names_2017: Tuple[str, ...]
    names_2006: Tuple[str, ...]
    area_2017: float
    area_2006: float
    core_power_spread_2017: float
    core_power_spread_2006: float
    dram_power_spread_2017: float
    dram_power_spread_2006: float

    @property
    def expansion(self) -> float:
        if self.area_2006 == 0.0:
            raise AnalysisError("degenerate CPU2006 power hull")
        return self.area_2017 / self.area_2006

    def dominant_features(self, component: int, top: int = 3) -> Tuple[str, ...]:
        """Strongest-loading power features of one PC (1-based)."""
        return self.pca.dominant_features(component, top=top)


def analyze_power_spectrum(
    profiler: Optional[Profiler] = None,
) -> PowerSpectrum:
    """Run the Figure 12 power-space analysis."""
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
    matrix = build_feature_matrix(
        names_2017 + names_2006,
        machines=POWER_MACHINE_NAMES,
        metrics=POWER_METRICS,
        profiler=profiler,
    )
    values, labels = drop_constant_columns(matrix.values, matrix.features)
    pca = fit_pca(values, labels)
    scores = pca.retained_scores(min(2, pca.n_components))
    if scores.shape[1] < 2:
        scores = np.column_stack([scores, np.zeros(scores.shape[0])])
    points = {
        name: (float(scores[i, 0]), float(scores[i, 1]))
        for i, name in enumerate(matrix.workloads)
    }
    all_names = list(matrix.workloads)
    idx17 = [all_names.index(n) for n in names_2017]
    idx06 = [all_names.index(n) for n in names_2006]

    # Raw per-domain spreads (std of watts across a suite, averaged over
    # machines) used for the core-vs-DRAM diversity finding.
    core_cols = [
        j for j, f in enumerate(matrix.features) if f.startswith("core_power")
    ]
    dram_cols = [
        j for j, f in enumerate(matrix.features) if f.startswith("dram_power")
    ]

    def spread(rows: List[int], cols: List[int]) -> float:
        return float(matrix.values[np.ix_(rows, cols)].std(axis=0).mean())

    return PowerSpectrum(
        pca=pca,
        points=points,
        names_2017=tuple(names_2017),
        names_2006=tuple(names_2006),
        area_2017=hull_area(scores[idx17]),
        area_2006=hull_area(scores[idx06]),
        core_power_spread_2017=spread(idx17, core_cols),
        core_power_spread_2006=spread(idx06, core_cols),
        dram_power_spread_2017=spread(idx17, dram_cols),
        dram_power_spread_2006=spread(idx06, dram_cols),
    )
