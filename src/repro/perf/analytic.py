"""Closed-form profiling engine, in two stages.

Evaluates a workload's statistical profiles against a machine's cache,
TLB and branch-predictor geometry to produce the Table III counter
metrics without synthesizing a trace.

1. **Miss ratios** (:func:`miss_ratio_tables`).  Every cache and TLB
   lookup of a workload's machine batch — L1D/L1I/L2/L3 at line
   granularity, DTLB/ITLB/L2 TLB at page granularity — goes to
   :func:`repro.workloads.profiles.miss_ratios` in one call, which
   evaluates the batch's distinct binomial set-occupancy quadratures
   as one array program (reuse-distance model of
   :meth:`repro.workloads.profiles.ReuseProfile.miss_ratio`).  A
   caller-owned :data:`~repro.workloads.profiles.RowTable` carries the
   evaluated rows from call to call, so each distinct row is evaluated
   once per owner: the :class:`~repro.perf.profiler.Profiler` for a
   command, the registry load for its Table I calibration.  This stage
   depends only on the workload's locality profiles and the structure
   geometries, and it is where the engine's time goes.
2. **Per-pair arithmetic** (:func:`assemble_report`).  The monotone
   clamp of each miss hierarchy, TLB walks, branch mispredictions
   (:meth:`repro.workloads.profiles.BranchProfile.mispredict_rate`),
   ISA renormalization, the CPI stack and power.  ILP and MLP enter
   only here, so the Table I calibration
   (:mod:`repro.workloads.calibration`) runs stage 1 once per workload
   and searches MLP over stage 2 alone.

:func:`profile_analytic_batch` runs both stages as one engine call,
under one ``engine.analytic`` span; :func:`profile_analytic` is a batch
of one.  A batch is bit-identical to profiling its pairs one at a time.

ISA effects are modelled through ``MachineConfig.isa_path_factor``: a
RISC build of the same program executes more, simpler instructions, so
every per-instruction rate is renormalized to machine instructions.
That keeps the *event counts* (misses, walks, mispredictions) invariant
— they are properties of the algorithm — while the per-instruction
metrics become machine-dependent, exactly the bias the paper's
seven-machine methodology is designed to average out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.perf.counters import CounterReport, Metric
from repro.uarch.machine import MachineConfig
from repro.uarch.pipeline import compute_cpi_stack
from repro.workloads.constants import AVERAGE_INSTRUCTION_BYTES, TAKEN_LINE_BREAK
from repro.workloads.profiles import MissRatioRequest, RowTable, miss_ratios
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "AVERAGE_INSTRUCTION_BYTES",
    "MissRatios",
    "assemble_report",
    "miss_ratio_tables",
    "profile_analytic",
    "profile_analytic_batch",
]

#: One machine's global miss ratios, before the monotone clamp, keyed
#: by lookup: ``l1d``/``l2d``/``l3d`` and ``l1i``/``l2i``/``l3i`` (the
#: L3 keys only with an L3), ``dtlb``/``itlb``, and ``dwalk``/``iwalk``
#: (L2 TLB misses, only with an L2 TLB).
MissRatios = Dict[str, float]


@dataclass(frozen=True)
class _EventRates:
    """Per-x86-kilo-instruction event rates, before ISA renormalization."""

    mem_refs: float
    ifetch_lines: float
    branches: float
    taken: float


def _event_rates(spec: WorkloadSpec, line_bytes: int) -> _EventRates:
    mix = spec.mix
    branches = mix.branch * 1000.0
    taken = branches * spec.branches.taken_fraction
    sequential = 1000.0 * AVERAGE_INSTRUCTION_BYTES / line_bytes
    ifetch = sequential + TAKEN_LINE_BREAK * taken
    return _EventRates(
        mem_refs=mix.memory * 1000.0,
        ifetch_lines=ifetch,
        branches=branches,
        taken=taken,
    )


def _monotone(*ratios: float) -> tuple:
    """Clamp a sequence of global miss ratios to be non-increasing."""
    result = []
    ceiling = 1.0
    for ratio in ratios:
        ratio = min(ratio, ceiling)
        result.append(ratio)
        ceiling = ratio
    return tuple(result)


def _lookups(
    spec: WorkloadSpec, machine: MachineConfig
) -> Dict[str, MissRatioRequest]:
    """The miss-ratio lookups of one machine, keyed as :data:`MissRatios`."""
    data = spec.data_reuse
    inst = spec.inst_reuse
    caches = {
        "l1d": (data, machine.l1d),
        "l2d": (data, machine.l2),
        "l1i": (inst, machine.l1i),
        "l2i": (inst, machine.l2),
    }
    if machine.l3 is not None:
        caches["l3d"] = (data, machine.l3)
        caches["l3i"] = (inst, machine.l3)
    lookups = {
        name: (profile, cache.num_lines, cache.associativity)
        for name, (profile, cache) in caches.items()
    }

    # TLBs see the same streams at page granularity.
    page_scale = machine.dtlb.page_bytes / 4096.0
    lines_per_page = machine.dtlb.page_bytes / machine.l1d.line_bytes
    dpage_factor = min(lines_per_page, spec.data_page_factor * page_scale)
    ipage_factor = min(lines_per_page, spec.inst_page_factor * page_scale)
    dpages = data.scaled(1.0 / dpage_factor)
    ipages = inst.scaled(1.0 / ipage_factor)
    tlbs = {"dtlb": (dpages, machine.dtlb), "itlb": (ipages, machine.itlb)}
    if machine.l2tlb is not None:
        tlbs["dwalk"] = (dpages, machine.l2tlb)
        tlbs["iwalk"] = (ipages, machine.l2tlb)
    lookups.update(
        (name, (profile, tlb.entries, tlb.associativity))
        for name, (profile, tlb) in tlbs.items()
    )
    return lookups


def _miss_ratio_tables(
    spec: WorkloadSpec,
    machines: Sequence[MachineConfig],
    table: Optional[RowTable],
) -> List[MissRatios]:
    # Against analytic.profiles this gives pairs per batch, so a lost
    # batching shows up in `repro obs check`.
    obs_metrics.incr("analytic.batches")
    lookups = [_lookups(spec, machine) for machine in machines]
    ratios = iter(
        miss_ratios(
            [request for names in lookups for request in names.values()], table
        )
    )
    return [{name: next(ratios) for name in names} for names in lookups]


def miss_ratio_tables(
    spec: WorkloadSpec,
    machines: Sequence[MachineConfig],
    table: Optional[RowTable] = None,
) -> List[MissRatios]:
    """Stage 1 alone, as one engine call: each machine's miss ratios.

    ``table`` is the caller's quadrature row table (see
    :func:`~repro.workloads.profiles.miss_ratios`); without one, rows
    are shared within this call only.
    """
    machines = list(machines)
    with span("engine.analytic", workload=spec.name, machines=len(machines)):
        return _miss_ratio_tables(spec, machines, table)


def assemble_report(
    spec: WorkloadSpec, machine: MachineConfig, ratios: MissRatios
) -> CounterReport:
    """Stage 2: one pair's counter report from its machine's miss ratios."""
    factor = machine.isa_path_factor
    rates = _event_rates(spec, machine.l1d.line_bytes)

    # ---- caches (global miss ratios, line granularity) -------------------
    l1d_ratio, l2d_ratio, l3d_ratio = _monotone(
        ratios["l1d"], ratios["l2d"], ratios.get("l3d", ratios["l2d"])
    )
    l1i_ratio, l2i_ratio, l3i_ratio = _monotone(
        ratios["l1i"], ratios["l2i"], ratios.get("l3i", ratios["l2i"])
    )

    # Misses per x86 kilo-instruction.
    l1d = l1d_ratio * rates.mem_refs
    l2d = l2d_ratio * rates.mem_refs
    l3d = l3d_ratio * rates.mem_refs
    l1i = l1i_ratio * rates.ifetch_lines
    l2i = l2i_ratio * rates.ifetch_lines
    l3i = l3i_ratio * rates.ifetch_lines

    # ---- TLBs (page granularity) -----------------------------------------
    dtlb_misses = ratios["dtlb"] * rates.mem_refs          # per x86 KI
    itlb_misses = ratios["itlb"] * rates.ifetch_lines

    if machine.l2tlb is not None:
        dwalks = min(dtlb_misses, ratios["dwalk"] * rates.mem_refs)
        iwalks = min(itlb_misses, ratios["iwalk"] * rates.ifetch_lines)
        last_tlb_misses = dwalks + iwalks
    else:
        dwalks, iwalks = dtlb_misses, itlb_misses
        last_tlb_misses = dtlb_misses + itlb_misses

    # ---- branches ----------------------------------------------------------
    predictor = machine.predictor
    mispredict = spec.branches.mispredict_rate(
        predictor.strength, predictor.table_entries
    )
    branch_misses = mispredict * rates.branches        # per x86 KI

    # ---- renormalize everything to machine instructions -------------------
    def per_ki(x86_value: float) -> float:
        return x86_value / factor

    metrics: Dict[Metric, float] = {
        Metric.L1D_MPKI: per_ki(l1d),
        Metric.L1I_MPKI: per_ki(l1i),
        Metric.L2D_MPKI: per_ki(l2d),
        Metric.L2I_MPKI: per_ki(l2i),
        Metric.L3_MPKI: per_ki(l3d + l3i),
        Metric.L1_DTLB_MPMI: per_ki(dtlb_misses) * 1000.0,
        Metric.L1_ITLB_MPMI: per_ki(itlb_misses) * 1000.0,
        Metric.LAST_TLB_MPMI: per_ki(last_tlb_misses) * 1000.0,
        Metric.PAGE_WALKS_PMI: per_ki(dwalks + iwalks) * 1000.0,
        Metric.BRANCH_MPKI: per_ki(branch_misses),
        Metric.BRANCH_TAKEN_PKI: per_ki(rates.taken),
    }

    # Instruction-mix percentages on this machine: the extra RISC
    # instructions are integer ALU work.
    mix = spec.mix
    extra = factor - 1.0
    metrics[Metric.PCT_LOAD] = mix.load / factor * 100.0
    metrics[Metric.PCT_STORE] = mix.store / factor * 100.0
    metrics[Metric.PCT_BRANCH] = mix.branch / factor * 100.0
    metrics[Metric.PCT_FP] = mix.fp / factor * 100.0
    metrics[Metric.PCT_SIMD] = mix.simd / factor * 100.0
    metrics[Metric.PCT_INT] = (mix.int_alu + mix.other + extra) / factor * 100.0
    metrics[Metric.PCT_KERNEL] = mix.kernel * 100.0
    metrics[Metric.PCT_USER] = (1.0 - mix.kernel) * 100.0

    # ---- CPI stack ----------------------------------------------------------
    stack = compute_cpi_stack(
        width=machine.width,
        ilp=spec.ilp,
        mlp=spec.mlp,
        latencies=machine.latencies,
        mispredict_penalty=predictor.mispredict_penalty,
        l1d_mpki=metrics[Metric.L1D_MPKI],
        l2d_mpki=metrics[Metric.L2D_MPKI],
        l3_mpki=per_ki(l3d),
        l1i_mpki=metrics[Metric.L1I_MPKI],
        l2i_mpki=metrics[Metric.L2I_MPKI],
        branch_mpki=metrics[Metric.BRANCH_MPKI],
        dtlb_walks_pmi=per_ki(dwalks) * 1000.0,
        itlb_walks_pmi=per_ki(iwalks) * 1000.0,
    )
    metrics[Metric.CPI] = stack.total

    # ---- power ---------------------------------------------------------------
    power = None
    if machine.power is not None:
        power = machine.power.sample(
            frequency_ghz=machine.frequency_ghz,
            cpi=stack.total,
            fp_fraction=mix.fp / factor,
            simd_fraction=mix.simd / factor,
            llc_accesses_per_ki=per_ki(l2d + l2i),
            dram_accesses_per_ki=per_ki(l3d + l3i),
        )
        metrics[Metric.CORE_POWER_W] = power.core_watts
        metrics[Metric.LLC_POWER_W] = power.llc_watts
        metrics[Metric.DRAM_POWER_W] = power.dram_watts

    return CounterReport(
        workload=spec.name,
        machine=machine.name,
        metrics=metrics,
        cpi_stack=stack,
        power=power,
        instructions=spec.icount_billions * 1e9 * factor,
    )


def profile_analytic_batch(
    spec: WorkloadSpec,
    machines: Sequence[MachineConfig],
    table: Optional[RowTable] = None,
) -> List[CounterReport]:
    """Profile one workload across a batch of machines in closed form.

    One engine call: stage 1 evaluates the miss ratios of every machine
    in one array program, reading and filling the quadrature row
    ``table`` when one is given, then stage 2 assembles each machine's
    report.  Reports come back in input order.
    """
    machines = list(machines)
    with span("engine.analytic", workload=spec.name, machines=len(machines)):
        obs_metrics.incr("analytic.profiles", len(machines))
        tables = _miss_ratio_tables(spec, machines, table)
        return [
            assemble_report(spec, machine, ratios)
            for machine, ratios in zip(machines, tables)
        ]


def profile_analytic(
    spec: WorkloadSpec,
    machine: MachineConfig,
    table: Optional[RowTable] = None,
) -> CounterReport:
    """Profile one workload on one machine in closed form."""
    return profile_analytic_batch(spec, [machine], table)[0]
