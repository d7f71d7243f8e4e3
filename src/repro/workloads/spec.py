"""Workload specifications and the workload registry.

A :class:`WorkloadSpec` is the microarchitecture-independent model of one
benchmark: its dynamic instruction count and mix, locality profiles,
branch behaviour and pipeline parallelism parameters.  Concrete benchmark
definitions live in :mod:`repro.workloads.spec2017` and friends and are
registered here so analyses can look workloads up by name or suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, UnknownWorkloadError
from repro.workloads.profiles import (
    BranchProfile,
    InstructionMix,
    ReuseProfile,
    RowTable,
)

__all__ = [
    "Suite",
    "InputSetSpec",
    "WorkloadSpec",
    "register_workload",
    "get_workload",
    "all_workloads",
    "workloads_in_suite",
]

# Bytes per cache line assumed by line-granularity reuse profiles.
CACHE_LINE_BYTES = 64

# Bytes per page assumed by page-granularity reuse profiles.
PAGE_BYTES = 4096


class Suite(enum.Enum):
    """Benchmark suite / workload family membership."""

    SPEC2017_SPEED_INT = "SPECspeed INT"
    SPEC2017_RATE_INT = "SPECrate INT"
    SPEC2017_SPEED_FP = "SPECspeed FP"
    SPEC2017_RATE_FP = "SPECrate FP"
    SPEC2006_INT = "CPU2006 INT"
    SPEC2006_FP = "CPU2006 FP"
    SPEC2000_EDA = "CPU2000 EDA"
    EMERGING_DATABASE = "Database"
    EMERGING_GRAPH = "Graph analytics"

    @property
    def is_cpu2017(self) -> bool:
        return self in _CPU2017_SUITES

    @property
    def is_cpu2006(self) -> bool:
        return self in (Suite.SPEC2006_INT, Suite.SPEC2006_FP)

    @property
    def is_integer(self) -> bool:
        return self in (
            Suite.SPEC2017_SPEED_INT,
            Suite.SPEC2017_RATE_INT,
            Suite.SPEC2006_INT,
        )

    @property
    def is_floating_point(self) -> bool:
        return self in (
            Suite.SPEC2017_SPEED_FP,
            Suite.SPEC2017_RATE_FP,
            Suite.SPEC2006_FP,
        )

    @property
    def is_speed(self) -> bool:
        return self in (Suite.SPEC2017_SPEED_INT, Suite.SPEC2017_SPEED_FP)

    @property
    def is_rate(self) -> bool:
        return self in (Suite.SPEC2017_RATE_INT, Suite.SPEC2017_RATE_FP)


_CPU2017_SUITES = (
    Suite.SPEC2017_SPEED_INT,
    Suite.SPEC2017_RATE_INT,
    Suite.SPEC2017_SPEED_FP,
    Suite.SPEC2017_RATE_FP,
)


@dataclass(frozen=True)
class InputSetSpec:
    """One input set of a benchmark, as a perturbation of its base model.

    SPEC benchmarks with multiple reference inputs (e.g. the five inputs
    of ``502.gcc_r``) execute the same code over different data, so their
    models share the base spec with small parameter perturbations.

    Parameters
    ----------
    index:
        1-based input set number, following the ``specinvoke`` ordering
        used in the paper's Figures 7 and 8.
    weight:
        Contribution of this input to the aggregated benchmark (reportable
        SPEC runs aggregate all inputs); proportional to runtime share.
    data_scale:
        Multiplicative factor on data reuse distances (working-set size).
    branch_shift:
        Additive shift applied to every branch class bias (clamped to the
        valid range); models inputs with easier/harder control flow.
    mix_shift:
        Additive shift moving instruction-mix mass between memory and
        integer ALU operations (positive = more memory operations).
    cold_shift:
        Additive shift on the cold (streaming) fraction of the data
        reuse profile.
    """

    index: int
    weight: float = 1.0
    data_scale: float = 1.0
    branch_shift: float = 0.0
    mix_shift: float = 0.0
    cold_shift: float = 0.0

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ConfigurationError(f"input set index must be >= 1, got {self.index}")
        if self.weight <= 0.0:
            raise ConfigurationError(f"input weight must be > 0, got {self.weight}")
        if self.data_scale <= 0.0:
            raise ConfigurationError(
                f"data_scale must be > 0, got {self.data_scale}"
            )


@dataclass(frozen=True)
class WorkloadSpec:
    """Microarchitecture-independent model of one benchmark.

    Parameters
    ----------
    name:
        Canonical benchmark name (e.g. ``"605.mcf_s"``).
    suite:
        Suite membership.
    domain:
        Application domain label (Table VIII taxonomy).
    language:
        Source language ("C", "C++", "Fortran", mixtures, or "Java" for
        the Cassandra workloads).
    icount_billions:
        Dynamic instruction count in billions (Table I).
    mix:
        Dynamic instruction mix.
    data_reuse:
        Cache-line granularity reuse-distance profile of the data stream.
    inst_reuse:
        Cache-line granularity reuse-distance profile of the instruction
        stream (code footprint behaviour).
    branches:
        Branch predictability profile.
    data_page_factor:
        Spatial compaction when translating data line distances to page
        distances: sequential access touches ~64 lines per page (factor
        near 64), pointer-chasing/random access touches ~1 (factor near
        1).  Page-granularity distances are line distances divided by
        this factor.
    inst_page_factor:
        Same for the instruction stream.
    ilp:
        Exploitable instruction-level parallelism (bounds the base CPI:
        an ideal machine of width ``w`` achieves ``CPI >= 1/min(w, ilp)``).
    mlp:
        Memory-level parallelism: average number of overlapping
        long-latency misses; divides the exposed miss penalty.
    footprint_mb:
        Resident data footprint in MB (documentation/reporting).
    reference_cpi:
        Published Skylake CPI from Table I, when available (used only by
        calibration tests and reports, never by the models themselves).
    input_sets:
        Reference input sets; empty means a single implicit input.
    rate_partner:
        Name of the corresponding rate/speed twin, when one exists.
    """

    name: str
    suite: Suite
    domain: str
    language: str
    icount_billions: float
    mix: InstructionMix
    data_reuse: ReuseProfile
    inst_reuse: ReuseProfile
    branches: BranchProfile
    data_page_factor: float = 16.0
    inst_page_factor: float = 32.0
    ilp: float = 3.0
    mlp: float = 2.0
    footprint_mb: float = 100.0
    reference_cpi: Optional[float] = None
    input_sets: Tuple[InputSetSpec, ...] = ()
    rate_partner: Optional[str] = None

    def __post_init__(self) -> None:
        if self.icount_billions <= 0.0:
            raise ConfigurationError(
                f"icount_billions must be > 0, got {self.icount_billions}"
            )
        if not 1.0 <= self.data_page_factor <= 64.0:
            raise ConfigurationError(
                f"data_page_factor must be in [1, 64], got {self.data_page_factor}"
            )
        if not 1.0 <= self.inst_page_factor <= 64.0:
            raise ConfigurationError(
                f"inst_page_factor must be in [1, 64], got {self.inst_page_factor}"
            )
        if self.ilp < 0.5:
            raise ConfigurationError(f"ilp must be >= 0.5, got {self.ilp}")
        if self.mlp < 1.0:
            raise ConfigurationError(f"mlp must be >= 1, got {self.mlp}")
        indices = [inp.index for inp in self.input_sets]
        if len(indices) != len(set(indices)):
            raise ConfigurationError(f"duplicate input set indices in {self.name}")

    # -- derived profiles ------------------------------------------------------

    @property
    def data_page_reuse(self) -> ReuseProfile:
        """Page-granularity reuse profile of the data stream."""
        return self.data_reuse.scaled(1.0 / self.data_page_factor)

    @property
    def inst_page_reuse(self) -> ReuseProfile:
        """Page-granularity reuse profile of the instruction stream."""
        return self.inst_reuse.scaled(1.0 / self.inst_page_factor)

    @property
    def label(self) -> str:
        """Short display label (benchmark name without the numeric id)."""
        head, _, tail = self.name.partition(".")
        return tail or head

    # -- input sets ------------------------------------------------------------

    @property
    def has_multiple_inputs(self) -> bool:
        return len(self.input_sets) > 1

    def input_variant(self, index: int) -> "WorkloadSpec":
        """The spec of one input set, derived from the base model."""
        for input_set in self.input_sets:
            if input_set.index == index:
                return self._apply_input(input_set)
        raise ConfigurationError(f"{self.name} has no input set {index}")

    def input_variants(self) -> List["WorkloadSpec"]:
        """Specs of every input set (a single-element list if only one)."""
        if not self.input_sets:
            return [self]
        return [self._apply_input(inp) for inp in self.input_sets]

    def _apply_input(self, input_set: InputSetSpec) -> "WorkloadSpec":
        data_reuse = self.data_reuse.scaled(input_set.data_scale)
        if input_set.cold_shift:
            cold = min(
                0.99, max(0.0, data_reuse.cold_fraction + input_set.cold_shift)
            )
            data_reuse = data_reuse.with_cold_fraction(cold)
        branches = self.branches
        if input_set.branch_shift:
            shifted = tuple(
                replace(c, bias=min(1.0, max(0.5, c.bias + input_set.branch_shift)))
                for c in branches.classes
            )
            branches = replace(branches, classes=shifted)
        mix = self.mix
        if input_set.mix_shift:
            shift = input_set.mix_shift
            shift = max(-self.mix.load * 0.5, min(self.mix.int_alu * 0.5, shift))
            mix = replace(
                mix, load=self.mix.load + shift, int_alu=self.mix.int_alu - shift
            )
        return replace(
            self,
            name=f"{self.name}#{input_set.index}",
            data_reuse=data_reuse,
            branches=branches,
            mix=mix,
            input_sets=(),
        )

    @property
    def base_name(self) -> str:
        """Benchmark name with any ``#input`` suffix stripped."""
        head, _, _ = self.name.partition("#")
        return head


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, WorkloadSpec] = {}
_LOADED = False


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add a workload to the global registry (idempotent per name)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ConfigurationError(f"conflicting registration for {spec.name}")
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_loaded() -> None:
    """Register every spec defined by the benchmark data modules."""
    global _LOADED
    if _LOADED:
        return
    from repro.workloads import emerging, spec2000, spec2006, spec2017
    from repro.workloads.calibration import calibrate_spec

    # One quadrature row table for this load's fits, dropped after it.
    table: RowTable = {}
    for module in (spec2017, spec2006, spec2000, emerging):
        for spec in module.SPECS:
            register_workload(calibrate_spec(spec, table))
    _LOADED = True


def get_workload(name: str) -> WorkloadSpec:
    """Look a workload up by canonical name."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownWorkloadError(name) from None


def all_workloads() -> List[WorkloadSpec]:
    """Every registered workload, sorted by name."""
    _ensure_loaded()
    return [spec for _, spec in sorted(_REGISTRY.items())]


def workloads_in_suite(*suites: Suite) -> List[WorkloadSpec]:
    """All workloads belonging to any of the given suites, sorted by name."""
    _ensure_loaded()
    wanted = set(suites)
    return [spec for spec in all_workloads() if spec.suite in wanted]
