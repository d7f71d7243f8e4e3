"""Exact trace-driven profiling engine.

Synthesizes a concrete trace window from the workload model
(:mod:`repro.workloads.synthesis`) and replays it through
set-associative caches, a two-level TLB hierarchy and a real branch
predictor — the fused whole-trace replay of :mod:`repro.uarch.fused`,
bit-identical to the scalar per-access simulators the test suite
keeps as its oracle (``tests/scalar_uarch.py``) — then assembles the same
:class:`~repro.perf.counters.CounterReport` the analytic engine
produces.  Traces come from the caller's table
(:mod:`repro.perf.trace_cache`), whose entries keep each trace's
structure replays, so a batch on a trace that an earlier batch
replayed replays only the structures new to it; it still cuts its own
warm-up counts.

Scope notes (documented deviations, shared with the analytic engine):

* Instruction and data streams do not contend for the shared L2/L3;
  each stream is simulated against its own copy of the outer levels and
  misses are attributed per stream, as hardware performance counters do.
* The trace synthesizer treats reuse distances beyond
  :data:`~repro.workloads.synthesis.MAX_STACK_DEPTH` lines as cold, so
  very large caches (multi-MB LLCs) see slightly pessimistic miss
  counts on short windows; validation tests therefore compare the two
  engines on L1/L2-scale structures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.perf.counters import CounterReport, Metric
from repro.perf.trace_cache import TraceTable, get_or_synthesize, trace_seed
from repro.uarch.fused import FusedCounts, replay_fused
from repro.uarch.machine import MachineConfig
from repro.uarch.pipeline import compute_cpi_stack
from repro.workloads.spec import WorkloadSpec

__all__ = [
    "profile_trace",
    "profile_trace_batch",
    "ENGINE_AGREEMENT_TOLERANCES",
]

#: Engine-agreement envelope: how far the exact engine may drift from
#: the analytic model on L1/L2-scale structures (the structures small
#: enough that a 200k-instruction window reaches steady state).  These
#: are the single source of truth for the calibration tests in
#: ``tests/test_trace_engine.py`` — recorded here, next to the engine,
#: so a model change that widens the gap is an explicit edit, not a
#: scattered magic-number tweak.  The bounds are validated against the
#: geometry-shared traces of :func:`repro.perf.trace_cache.trace_seed`,
#: the engine's only trace identity.
ENGINE_AGREEMENT_TOLERANCES = {
    "l1d_mpki": {"rel": 0.25, "abs": 1.5},
    "l1i_mpki": {"rel": 0.8, "abs": 2.0},
    "branch_taken_pki": {"rel": 0.25, "abs": 2.0},
    "branch_mpki": {"factor": 5.0},
    "l1_dtlb_mpmi": {"factor": 2.0},
}


def _assemble_report(
    spec: WorkloadSpec,
    machine: MachineConfig,
    instructions: int,
    warmup_fraction: float,
    counts: FusedCounts,
) -> CounterReport:
    """Assemble a :class:`CounterReport` from raw post-warm-up counts.

    Any replay that counts the same events as the fused engine (the
    test suite's scalar reference, for one) yields a bit-identical
    report through this single assembly.
    """
    factor = machine.isa_path_factor
    measured = instructions * (1.0 - warmup_fraction)
    ki = measured / 1000.0 * factor  # measured machine kilo-instructions
    mi = ki / 1000.0

    data = counts.data_misses
    inst = counts.inst_misses
    l1d_misses, l2d_misses = data[0], data[1]
    l3d_misses = data[2] if len(data) > 2 else data[1]
    l1i_misses, l2i_misses = inst[0], inst[1]
    l3i_misses = inst[2] if len(inst) > 2 else inst[1]

    metrics: Dict[Metric, float] = {
        Metric.L1D_MPKI: l1d_misses / ki,
        Metric.L1I_MPKI: l1i_misses / ki,
        Metric.L2D_MPKI: l2d_misses / ki,
        Metric.L2I_MPKI: l2i_misses / ki,
        Metric.L3_MPKI: (l3d_misses + l3i_misses) / ki,
        Metric.L1_DTLB_MPMI: counts.dtlb_misses / mi,
        Metric.L1_ITLB_MPMI: counts.itlb_misses / mi,
        Metric.LAST_TLB_MPMI: counts.last_tlb_misses / mi,
        Metric.PAGE_WALKS_PMI: counts.total_walks / mi,
        Metric.BRANCH_MPKI: counts.mispredicts / ki,
        Metric.BRANCH_TAKEN_PKI: counts.taken_count / ki,
    }

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

    stack = compute_cpi_stack(
        width=machine.width,
        ilp=spec.ilp,
        mlp=spec.mlp,
        latencies=machine.latencies,
        mispredict_penalty=machine.predictor.mispredict_penalty,
        l1d_mpki=metrics[Metric.L1D_MPKI],
        l2d_mpki=metrics[Metric.L2D_MPKI],
        l3_mpki=l3d_misses / ki,
        l1i_mpki=metrics[Metric.L1I_MPKI],
        l2i_mpki=metrics[Metric.L2I_MPKI],
        branch_mpki=metrics[Metric.BRANCH_MPKI],
        dtlb_walks_pmi=counts.data_walks / mi,
        itlb_walks_pmi=(counts.total_walks - counts.data_walks) / mi,
    )
    metrics[Metric.CPI] = stack.total

    power = None
    if machine.power is not None:
        power = machine.power.sample(
            frequency_ghz=machine.frequency_ghz,
            cpi=stack.total,
            fp_fraction=mix.fp / factor,
            simd_fraction=mix.simd / factor,
            llc_accesses_per_ki=(l2d_misses + l2i_misses) / ki,
            dram_accesses_per_ki=(l3d_misses + l3i_misses) / ki,
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
        instructions=float(instructions) * factor,
    )


def profile_trace(
    spec: WorkloadSpec,
    machine: MachineConfig,
    instructions: int = 200_000,
    seed: int = 2017,
    warmup_fraction: float = 0.25,
    table: Optional[TraceTable] = None,
) -> CounterReport:
    """Profile one workload on one machine by exact simulation.

    A batch of one through :func:`profile_trace_batch`; see there.
    """
    return profile_trace_batch(
        spec,
        [machine],
        instructions=instructions,
        seed=seed,
        warmup_fraction=warmup_fraction,
        table=table,
    )[0]


def profile_trace_batch(
    spec: WorkloadSpec,
    machines: Sequence[MachineConfig],
    instructions: int = 200_000,
    seed: int = 2017,
    warmup_fraction: float = 0.25,
    table: Optional[TraceTable] = None,
) -> List[CounterReport]:
    """Profile one workload across a batch of machines in one pass.

    The first ``warmup_fraction`` of every stream warms the simulated
    structures; statistics are collected over the remainder only, so
    compulsory cold-start misses do not distort the steady-state rates
    the analytic engine models.

    Machines are grouped by trace identity — the geometry-keyed seed of
    :func:`repro.perf.trace_cache.trace_seed` plus (line_bytes,
    page_bytes) — and each group takes one shared trace from ``table``,
    the caller's trace table, synthesizing it there on a miss (with no
    table, traces live for this call only).  The group replays it
    through :func:`repro.uarch.fused.replay_fused`, which
    set-partitions each access stream once per distinct structure
    geometry instead of once per machine, and replays only the
    structures the trace's entry holds no replay of yet: an earlier
    batch on the same trace (a campaign's previous shard) leaves them
    there.  Reports come back in input order and are bit-identical to
    the scalar per-access simulators, which the test suite keeps as the
    reference oracle (``tests/scalar_uarch.py``).
    """
    if instructions <= 0:
        raise ConfigurationError(
            f"instructions must be > 0, got {instructions}"
        )
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigurationError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    machines = list(machines)
    if not machines:
        return []
    obs_metrics.incr("trace_engine.profiles", len(machines))
    obs_metrics.incr("trace_engine.instructions", instructions * len(machines))
    if table is None:
        table = {}
    groups: Dict[tuple, List[int]] = {}
    for index, machine in enumerate(machines):
        effective_seed = trace_seed(seed, spec, machine, instructions)
        key = (effective_seed, machine.l1d.line_bytes, machine.dtlb.page_bytes)
        groups.setdefault(key, []).append(index)
    reports: List[CounterReport] = [None] * len(machines)  # type: ignore[list-item]
    for (effective_seed, line_bytes, page_bytes), indices in groups.items():
        with span(
            "trace.synthesize", workload=spec.name, instructions=instructions
        ):
            entry = get_or_synthesize(
                table,
                spec,
                instructions,
                seed=effective_seed,
                line_bytes=line_bytes,
                page_bytes=page_bytes,
            )
        trace = entry.trace
        batch = [machines[i] for i in indices]
        # Against trace_engine.profiles this gives machines per batch,
        # so a lost batching shows up in `repro obs check`.
        obs_metrics.incr("trace_engine.fused_batches")
        with span(
            "trace.fused",
            workload=spec.name,
            machines=len(batch),
            refs=int(trace.data_refs),
            fetches=int(trace.ifetch_addresses.size),
            branches=int(trace.branches),
        ):
            batch_counts = replay_fused(
                batch,
                trace.data_addresses,
                trace.ifetch_addresses,
                trace.branch_sites,
                trace.branch_taken,
                warmup_fraction,
                entry.replays,
            )
        for i, machine_counts in zip(indices, batch_counts):
            reports[i] = _assemble_report(
                spec, machines[i], instructions, warmup_fraction, machine_counts
            )
    return reports
