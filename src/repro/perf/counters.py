"""Performance-counter metric definitions (Table III).

The paper collects ~20 performance metrics per benchmark per machine,
covering cache behaviour, TLB behaviour, branch prediction, instruction
mix and power.  :class:`Metric` enumerates them; :class:`CounterReport`
holds one profiled (workload, machine) result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.uarch.pipeline import CpiStack
from repro.uarch.power import PowerSample

__all__ = [
    "Metric",
    "ALL_METRICS",
    "SIMILARITY_METRICS",
    "BRANCH_METRICS",
    "DCACHE_METRICS",
    "ICACHE_METRICS",
    "POWER_METRICS",
    "CounterReport",
]


class Metric(enum.Enum):
    """One hardware performance metric (Table III).

    Units follow the paper: MPKI = misses per kilo-instruction,
    MPMI = misses per million instructions, PCT = percent of the
    dynamic instruction stream, W = watts.
    """

    # Cache behaviour
    L1D_MPKI = "l1d_mpki"
    L1I_MPKI = "l1i_mpki"
    L2D_MPKI = "l2d_mpki"
    L2I_MPKI = "l2i_mpki"
    L3_MPKI = "l3_mpki"
    # TLB behaviour
    L1_DTLB_MPMI = "l1_dtlb_mpmi"
    L1_ITLB_MPMI = "l1_itlb_mpmi"
    LAST_TLB_MPMI = "last_tlb_mpmi"
    PAGE_WALKS_PMI = "page_walks_pmi"
    # Branch predictor behaviour
    BRANCH_MPKI = "branch_mpki"
    BRANCH_TAKEN_PKI = "branch_taken_pki"
    # Instruction mix
    PCT_KERNEL = "pct_kernel"
    PCT_USER = "pct_user"
    PCT_INT = "pct_int"
    PCT_FP = "pct_fp"
    PCT_LOAD = "pct_load"
    PCT_STORE = "pct_store"
    PCT_BRANCH = "pct_branch"
    PCT_SIMD = "pct_simd"
    # Overall performance
    CPI = "cpi"
    # Power (RAPL domains; only populated on machines with a power model)
    CORE_POWER_W = "core_power_w"
    LLC_POWER_W = "llc_power_w"
    DRAM_POWER_W = "dram_power_w"

    @property
    def is_power(self) -> bool:
        return self in POWER_METRICS


#: All metrics, in canonical order.
ALL_METRICS: Tuple[Metric, ...] = tuple(Metric)

#: The power metrics of Table III (Fig 12 study).
POWER_METRICS: Tuple[Metric, ...] = (
    Metric.CORE_POWER_W,
    Metric.LLC_POWER_W,
    Metric.DRAM_POWER_W,
)

#: The 20 non-power metrics used for the 7-machine similarity analysis
#: (20 metrics x 7 machines = 140 features, matching Section III).
SIMILARITY_METRICS: Tuple[Metric, ...] = tuple(
    metric for metric in ALL_METRICS if not metric.is_power
)

#: Branch-behaviour metrics used for the Figure 9 classification.
BRANCH_METRICS: Tuple[Metric, ...] = (
    Metric.BRANCH_MPKI,
    Metric.BRANCH_TAKEN_PKI,
    Metric.PCT_BRANCH,
)

#: Data-cache metrics used for the Figure 10 (left) classification.
DCACHE_METRICS: Tuple[Metric, ...] = (
    Metric.L1D_MPKI,
    Metric.L2D_MPKI,
    Metric.L3_MPKI,
    Metric.PCT_LOAD,
    Metric.PCT_STORE,
)

#: Instruction-cache metrics used for the Figure 10 (right) classification.
ICACHE_METRICS: Tuple[Metric, ...] = (
    Metric.L1I_MPKI,
    Metric.L2I_MPKI,
    Metric.L1_ITLB_MPMI,
)


@dataclass(frozen=True)
class CounterReport:
    """The profile of one workload on one machine.

    Attributes
    ----------
    workload:
        Workload name (may carry a ``#n`` input-set suffix).
    machine:
        Machine registry name.
    metrics:
        Metric values; power metrics present only when the machine has a
        power model.
    cpi_stack:
        Top-down CPI breakdown.
    power:
        RAPL-style power sample, when available.
    instructions:
        Machine instructions represented by the profile (ISA-scaled).
    """

    workload: str
    machine: str
    metrics: Dict[Metric, float]
    cpi_stack: CpiStack
    power: Optional[PowerSample] = None
    instructions: float = 0.0

    def __post_init__(self) -> None:
        missing = [m for m in SIMILARITY_METRICS if m not in self.metrics]
        if missing:
            raise ConfigurationError(
                f"report for {self.workload}@{self.machine} lacks metrics: "
                + ", ".join(m.value for m in missing)
            )

    def __getitem__(self, metric: Metric) -> float:
        return self.metrics[metric]

    def get(self, metric: Metric, default: float = 0.0) -> float:
        """Metric value, or ``default`` when absent (e.g. power)."""
        return self.metrics.get(metric, default)

    @property
    def cpi(self) -> float:
        return self.metrics[Metric.CPI]

    def as_row(self, metrics: Tuple[Metric, ...] = SIMILARITY_METRICS) -> list:
        """Metric values in a fixed order (feature-matrix row segment)."""
        return [self.metrics.get(m, 0.0) for m in metrics]
