"""Design-space exploration with benchmark subsets.

The paper's motivation is pre-silicon design trade-off evaluation: the
suite is too big to simulate, so architects run a subset.  The implicit
requirement — stronger than score prediction — is that a subset *ranks
design options* the way the full suite would.  This module makes that
testable: it derives machine design variants (cache sizes, predictor
strength, memory latency), evaluates each variant's speedup over the
baseline on the full suite and on a subset, and measures how faithfully
the subset reproduces the full suite's design ranking.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.progress import progress as obs_progress
from repro.obs.trace import span
from repro.perf.counters import Metric
from repro.perf.profiler import Profiler
from repro.stats.scoring import geometric_mean
from repro.uarch.cache import CacheConfig
from repro.uarch.machine import MachineConfig, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = [
    "DesignVariant",
    "DesignEvaluation",
    "SubsetFidelity",
    "standard_design_space",
    "evaluate_design_space",
    "subset_design_fidelity",
]


@dataclass(frozen=True)
class DesignVariant:
    """One named machine configuration in the design space."""

    name: str
    machine: MachineConfig


@dataclass(frozen=True)
class DesignEvaluation:
    """Per-variant geomean speedups over the baseline machine."""

    baseline: str
    workloads: Tuple[str, ...]
    speedups: Dict[str, float]            # variant -> suite geomean speedup
    per_benchmark: Dict[str, Dict[str, float]]  # variant -> bench -> speedup

    def ranking(self) -> List[str]:
        """Variants sorted from most to least beneficial."""
        return sorted(self.speedups, key=self.speedups.get, reverse=True)

    def best(self) -> str:
        """The most beneficial design variant."""
        return self.ranking()[0]


@dataclass(frozen=True)
class SubsetFidelity:
    """How well a subset reproduces the full suite's design ranking."""

    full: DesignEvaluation
    subset: DesignEvaluation
    rank_correlation: float
    best_choice_agrees: bool
    max_speedup_gap: float

    @property
    def faithful(self) -> bool:
        """Subset agrees on the winner and correlates strongly overall."""
        return self.best_choice_agrees and self.rank_correlation >= 0.7


def _scale_cache(config: CacheConfig, factor: float) -> CacheConfig:
    size = int(config.size_bytes * factor)
    # keep the geometry valid: round to a multiple of line * assoc
    quantum = config.line_bytes * config.associativity
    size = max(quantum, (size // quantum) * quantum)
    return replace(config, size_bytes=size)


def standard_design_space(
    baseline: Union[str, MachineConfig] = "skylake-i7-6700",
) -> List[DesignVariant]:
    """A realistic candidate space around a baseline machine.

    Covers the classic pre-silicon questions: grow the LLC, grow the L2,
    strengthen the branch predictor, speed up memory, or enlarge the
    second-level TLB.
    """
    base = get_machine(baseline) if isinstance(baseline, str) else baseline
    variants = [DesignVariant("baseline", base)]

    def derive(tag: str, **changes) -> DesignVariant:
        # The composed name is diagnostic, not load-bearing: profiler
        # cache identity comes from the machine config's content digest
        # (repro.perf.profiler.pair_key), so two different variants can
        # never collide even if their tags repeat.
        machine = replace(base, name=f"{base.name}+{tag}", **changes)
        return DesignVariant(tag, machine)

    if base.l3 is not None:
        variants.append(derive("llc-2x", l3=_scale_cache(base.l3, 2.0)))
        variants.append(derive("llc-half", l3=_scale_cache(base.l3, 0.5)))
    variants.append(derive("l2-2x", l2=_scale_cache(base.l2, 2.0)))
    stronger = replace(
        base.predictor,
        strength=min(1.0, base.predictor.strength + 0.05),
        table_entries=base.predictor.table_entries * 4,
    )
    variants.append(derive("bigger-bp", predictor=stronger))
    faster_memory = replace(
        base.latencies, memory=max(base.latencies.l3 + 1, base.latencies.memory * 0.7)
    )
    variants.append(derive("fast-mem", latencies=faster_memory))
    if base.l2tlb is not None:
        bigger_tlb = replace(base.l2tlb, entries=base.l2tlb.entries * 4)
        variants.append(derive("stlb-4x", l2tlb=bigger_tlb))
    return variants


def evaluate_design_space(
    workloads: Iterable[Union[str, WorkloadSpec]],
    variants: Sequence[DesignVariant],
    profiler: Optional[Profiler] = None,
    jobs: int = 1,
    backend: str = "thread",
) -> DesignEvaluation:
    """Geomean speedup of each variant over the baseline.

    Speedup per benchmark is the CPI ratio baseline/variant on the
    modelled machine (clock held constant, as in same-process design
    studies).  With ``jobs > 1`` every (variant, workload) profile is
    prefilled through the parallel executor first; the evaluation then
    reads the profiler cache, so results match the serial path exactly.

    Under the trace engine, baseline and variants replay the *same*
    synthesized trace whenever a variant keeps the baseline's
    (line_bytes, page_bytes) — the paired-replay /
    common-random-numbers design: speedups compare the two configs on
    identical streams, so they carry no synthesis noise and are
    invariant to the base seed (a latency-only variant's speedup
    reflects only the structural change).

    Trace-engine evaluations prefill through the executor even at
    ``jobs=1`` so every workload's variant batch is simulated as one
    fused batch (see :mod:`repro.uarch.fused`) over one shared set
    partition — bit-identical to per-pair replay, several times faster
    on geometry-sharing variants.
    """
    if not variants:
        raise AnalysisError("need at least one design variant")
    if variants[0].name != "baseline":
        raise ConfigurationError("the first variant must be the baseline")
    profiler = profiler or Profiler()
    specs = [get_workload(w) if isinstance(w, str) else w for w in workloads]
    if not specs:
        raise AnalysisError("need at least one workload")

    with span(
        "designspace.evaluate",
        variants=len(variants),
        workloads=len(specs),
        jobs=jobs,
    ):
        if jobs > 1 or profiler.engine == "trace":
            from repro.perf.executor import ProfilingExecutor

            executor = ProfilingExecutor(profiler, jobs=jobs, backend=backend)
            executor.run(
                [
                    (spec, variant.machine)
                    for variant in variants
                    for spec in specs
                ],
                progress_label="designspace.prefill",
            )
        # The sweep profiles every (variant, workload) pair; report
        # stage completion so the long pre-silicon studies are visible.
        ticker = obs_progress(
            "designspace.sweep", total=len(variants) * len(specs)
        )
        base_cpi = {}
        for spec in specs:
            base_cpi[spec.name] = profiler.profile(
                spec, variants[0].machine
            ).metrics[Metric.CPI]
            ticker.advance()
        speedups: Dict[str, float] = {}
        per_benchmark: Dict[str, Dict[str, float]] = {}
        for variant in variants[1:]:
            with span("designspace.variant", variant=variant.name):
                bench_speedups = {}
                for spec in specs:
                    cpi = profiler.profile(
                        spec, variant.machine
                    ).metrics[Metric.CPI]
                    bench_speedups[spec.name] = base_cpi[spec.name] / cpi
                    ticker.advance()
            per_benchmark[variant.name] = bench_speedups
            speedups[variant.name] = geometric_mean(bench_speedups.values())
            obs_metrics.incr("designspace.variant_evals")
        ticker.close()
    return DesignEvaluation(
        baseline=variants[0].name,
        workloads=tuple(spec.name for spec in specs),
        speedups=speedups,
        per_benchmark=per_benchmark,
    )


def subset_design_fidelity(
    all_workloads: Sequence[str],
    subset: Sequence[str],
    variants: Optional[Sequence[DesignVariant]] = None,
    profiler: Optional[Profiler] = None,
    jobs: int = 1,
    backend: str = "thread",
) -> SubsetFidelity:
    """Does the subset rank the design variants like the full suite?"""
    missing = [name for name in subset if name not in all_workloads]
    if missing:
        raise AnalysisError(f"subset not contained in the suite: {missing}")
    variants = list(variants) if variants is not None else standard_design_space()
    profiler = profiler or Profiler()
    with span("designspace.fidelity", subset_k=len(subset)):
        full = evaluate_design_space(
            all_workloads, variants, profiler=profiler, jobs=jobs,
            backend=backend,
        )
        partial = evaluate_design_space(
            subset, variants, profiler=profiler, jobs=jobs, backend=backend,
        )

    names = sorted(full.speedups)
    full_values = np.array([full.speedups[n] for n in names])
    subset_values = np.array([partial.speedups[n] for n in names])
    from scipy.stats import spearmanr

    if len(names) > 1:
        rho, _ = spearmanr(full_values, subset_values)
        rho = float(rho)
    else:
        rho = 1.0
    return SubsetFidelity(
        full=full,
        subset=partial,
        rank_correlation=rho,
        best_choice_agrees=full.best() == partial.best(),
        max_speedup_gap=float(np.abs(full_values - subset_values).max()),
    )
