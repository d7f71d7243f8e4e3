"""Synthetic database of published commercial-system scores.

Section IV-B validates the identified subsets against SPEC's database of
published results: per-benchmark speedups of commercial systems over the
reference machine.  SPEC's database is not redistributable, so this
module generates a population of commercial systems whose per-benchmark
speedups follow the same mechanism real submissions do: a system speeds
a benchmark up according to how much of the benchmark's CPI stack its
improvements address (clock, core width, branch prediction, caches,
memory), plus configuration noise.

Because benchmarks in the same dendrogram cluster have similar CPI-stack
compositions, a cluster representative predicts its cluster's speedups —
which is exactly the property the validation experiment tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError
from repro.perf.profiler import Profiler
from repro.uarch.pipeline import CpiStack
from repro.workloads.calibration import REFERENCE_MACHINE
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = ["CommercialSystem", "COMMERCIAL_SYSTEMS", "published_speedups"]


@dataclass(frozen=True)
class CommercialSystem:
    """One commercial system submitting SPEC results.

    Factors are per-CPI-component improvements over the reference
    machine: the published speedup of a benchmark is the clock ratio
    times the ratio of its reference CPI stack to the stack with each
    component divided by the corresponding factor.
    """

    name: str
    frequency_ratio: float
    core_factor: float = 1.0
    frontend_factor: float = 1.0
    branch_factor: float = 1.0
    cache_factor: float = 1.0
    memory_factor: float = 1.0
    bandwidth_saturation: float = 0.0
    noise: float = 0.03

    def __post_init__(self) -> None:
        for field_name in (
            "frequency_ratio",
            "core_factor",
            "frontend_factor",
            "branch_factor",
            "cache_factor",
            "memory_factor",
        ):
            if getattr(self, field_name) <= 0.0:
                raise AnalysisError(f"{field_name} must be > 0")
        if not 0.0 <= self.noise < 0.5:
            raise AnalysisError(f"noise must be in [0, 0.5), got {self.noise}")
        if self.bandwidth_saturation < 0.0:
            raise AnalysisError("bandwidth_saturation must be >= 0")

    def speedup(
        self, stack: CpiStack, benchmark: str, memory_intensity: float = 0.0
    ) -> float:
        """Published speedup of one benchmark on this system.

        ``memory_intensity`` (0..1) is the benchmark's DRAM-traffic
        pressure; reportable runs execute many concurrent copies
        (SPECrate) or OpenMP threads (SPECspeed), so memory-bound
        benchmarks lose throughput to bandwidth saturation — the main
        source of per-benchmark spread in real submissions.
        """
        new_cpi = (
            (stack.base + stack.dependency) / self.core_factor
            + stack.frontend / self.frontend_factor
            + stack.bad_speculation / self.branch_factor
            + (stack.backend_l2 + stack.backend_l3) / self.cache_factor
            + (stack.backend_memory + stack.backend_tlb) / self.memory_factor
        )
        base = self.frequency_ratio * stack.total / new_cpi
        contention = 1.0 / (1.0 + self.bandwidth_saturation * memory_intensity)
        return base * contention * self._noise_factor(benchmark)

    def _noise_factor(self, benchmark: str) -> float:
        """Deterministic per-(system, benchmark) configuration noise."""
        if self.noise == 0.0:
            return 1.0
        digest = hashlib.sha256(f"{self.name}:{benchmark}".encode()).digest()
        seed = int.from_bytes(digest[:8], "little")
        rng = np.random.default_rng(seed)
        return float(np.exp(rng.normal(0.0, self.noise)))


#: The synthetic population standing in for SPEC's published results.
#: Profiles span the realistic design space: high-clock desktops,
#: wide-core servers, cache-heavy and bandwidth-heavy parts.
COMMERCIAL_SYSTEMS: Tuple[CommercialSystem, ...] = (
    CommercialSystem(
        "sys-a-highclock-desktop", frequency_ratio=1.40,
        core_factor=1.15, frontend_factor=1.05, branch_factor=1.15,
        cache_factor=0.85, memory_factor=0.70,
        bandwidth_saturation=0.60, noise=0.10,
    ),
    CommercialSystem(
        "sys-b-wide-server", frequency_ratio=0.85,
        core_factor=1.80, frontend_factor=1.50, branch_factor=1.60,
        cache_factor=1.20, memory_factor=1.05,
        bandwidth_saturation=3.20, noise=0.10,
    ),
    CommercialSystem(
        "sys-c-bigcache-server", frequency_ratio=0.95,
        core_factor=1.10, frontend_factor=1.15, branch_factor=1.05,
        cache_factor=2.60, memory_factor=1.60,
        bandwidth_saturation=1.80, noise=0.10,
    ),
    CommercialSystem(
        "sys-d-bandwidth-node", frequency_ratio=0.90,
        core_factor=1.05, frontend_factor=1.00, branch_factor=1.05,
        cache_factor=1.40, memory_factor=3.20,
        bandwidth_saturation=0.25, noise=0.10,
    ),
    CommercialSystem(
        "sys-e-balanced-2s", frequency_ratio=1.10,
        core_factor=1.35, frontend_factor=1.25, branch_factor=1.30,
        cache_factor=1.45, memory_factor=1.55,
        bandwidth_saturation=1.40, noise=0.10,
    ),
    CommercialSystem(
        "sys-f-entry-server", frequency_ratio=0.75,
        core_factor=0.90, frontend_factor=0.90, branch_factor=1.00,
        cache_factor=0.80, memory_factor=0.60,
        bandwidth_saturation=4.50, noise=0.10,
    ),
)


def published_speedups(
    benchmarks: Iterable[Union[str, WorkloadSpec]],
    systems: Optional[Sequence[CommercialSystem]] = None,
    profiler: Optional[Profiler] = None,
) -> Dict[str, Dict[str, float]]:
    """Per-system, per-benchmark speedups over the reference machine.

    Returns ``{system name: {benchmark name: speedup}}`` for every
    benchmark of the given sub-suite, mirroring the structure of the
    SPEC results database the paper queries.
    """
    systems = list(systems) if systems is not None else list(COMMERCIAL_SYSTEMS)
    if not systems:
        raise AnalysisError("need at least one commercial system")
    profiler = profiler or Profiler()
    specs = [
        get_workload(b) if isinstance(b, str) else b for b in benchmarks
    ]
    if not specs:
        raise AnalysisError("need at least one benchmark")
    profiles = {
        spec.name: profiler.profile(spec, REFERENCE_MACHINE) for spec in specs
    }
    intensities = {
        name: _memory_intensity(report) for name, report in profiles.items()
    }
    return {
        system.name: {
            name: system.speedup(
                report.cpi_stack, name, intensities[name]
            )
            for name, report in profiles.items()
        }
        for system in systems
    }


def _memory_intensity(report) -> float:
    """DRAM-traffic pressure of a benchmark, saturating into [0, 1)."""
    from repro.perf.counters import Metric

    dram_mpki = report.metrics.get(Metric.L3_MPKI, 0.0)
    return dram_mpki / (dram_mpki + 2.0)
