"""Cross-machine sensitivity classification (Section V-G, Table IX).

For each characteristic (branch misprediction, L1 D-cache, L1 D-TLB),
benchmarks are ranked per machine; the spread of a benchmark's rank
across machines indicates how sensitive it is to that structure's
configuration.  Benchmarks are binned into high / medium / low
sensitivity.  Note the paper's caveat: low sensitivity does not mean
good behaviour — leela and mcf rank worst for branches on *every*
machine, which makes them insensitive but still poorly behaved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError
from repro.perf.counters import Metric
from repro.perf.profiler import Profiler
from repro.uarch.machine import SENSITIVITY_MACHINE_NAMES
from repro.workloads.spec import Suite, workloads_in_suite

__all__ = [
    "SensitivityReport",
    "classify_sensitivity",
    "SENSITIVITY_CHARACTERISTICS",
]

#: Table IX characteristics and the metric that measures each.
SENSITIVITY_CHARACTERISTICS: Dict[str, Metric] = {
    "branch_prediction": Metric.BRANCH_MPKI,
    "l1_dcache": Metric.L1D_MPKI,
    "l1_dtlb": Metric.L1_DTLB_MPMI,
}


@dataclass(frozen=True)
class SensitivityReport:
    """Sensitivity classification for one characteristic."""

    characteristic: str
    metric: Metric
    machines: Tuple[str, ...]
    rank_spread: Dict[str, float]
    high: Tuple[str, ...]
    medium: Tuple[str, ...]
    low: Tuple[str, ...]

    def level_of(self, workload: str) -> str:
        """Sensitivity bin ("high"/"medium"/"low") of one benchmark."""
        if workload in self.high:
            return "high"
        if workload in self.medium:
            return "medium"
        if workload in self.low:
            return "low"
        raise AnalysisError(f"workload {workload!r} not classified")


def classify_sensitivity(
    characteristic: str,
    machines: Sequence[str] = SENSITIVITY_MACHINE_NAMES,
    profiler: Optional[Profiler] = None,
    high_fraction: float = 0.15,
    medium_fraction: float = 0.35,
) -> SensitivityReport:
    """Classify all CPU2017 benchmarks for one Table IX characteristic.

    The sensitivity score is the standard deviation of the benchmark's
    per-machine rank for the characteristic's metric; the top
    ``high_fraction`` of scores is "high", the next ``medium_fraction``
    "medium", the rest "low".
    """
    try:
        metric = SENSITIVITY_CHARACTERISTICS[characteristic]
    except KeyError:
        raise AnalysisError(
            f"unknown characteristic {characteristic!r}; expected one of "
            f"{sorted(SENSITIVITY_CHARACTERISTICS)}"
        ) from None
    if not 0.0 < high_fraction < 1.0 or not 0.0 < medium_fraction < 1.0:
        raise AnalysisError("fractions must be in (0, 1)")
    machines = list(machines)
    if len(machines) < 2:
        raise AnalysisError("sensitivity needs at least two machines")
    profiler = profiler or Profiler()

    names = [
        s.name
        for s in workloads_in_suite(
            Suite.SPEC2017_RATE_INT,
            Suite.SPEC2017_SPEED_INT,
            Suite.SPEC2017_RATE_FP,
            Suite.SPEC2017_SPEED_FP,
        )
    ]
    values = np.array(
        [
            [
                profiler.profile(name, machine).metrics.get(metric, 0.0)
                for machine in machines
            ]
            for name in names
        ]
    )
    # Rank per machine (0 = smallest value).
    ranks = values.argsort(axis=0).argsort(axis=0).astype(float)
    spread = ranks.std(axis=1)
    order = np.argsort(spread)[::-1]

    n = len(names)
    n_high = max(1, int(round(high_fraction * n)))
    n_medium = max(1, int(round(medium_fraction * n)))
    high = tuple(names[i] for i in order[:n_high])
    medium = tuple(names[i] for i in order[n_high : n_high + n_medium])
    low = tuple(names[i] for i in order[n_high + n_medium :])
    return SensitivityReport(
        characteristic=characteristic,
        metric=metric,
        machines=tuple(machines),
        rank_spread={name: float(spread[i]) for i, name in enumerate(names)},
        high=high,
        medium=medium,
        low=low,
    )
