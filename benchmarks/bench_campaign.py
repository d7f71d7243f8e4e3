"""Benchmark — campaign-scheduled sweep vs the naive per-machine loop.

Times a *warm-trace* design-space grid — 1000 generated machines
(:func:`repro.campaign.generator.generate_machines`) x the six-workload
campaign mix — two ways.  The **naive** baseline is what a campaign
engine replaces: loop over machines one at a time, replaying each
workload's trace as a batch of one per machine (6000 separate replays).
The **campaign** path is the engine's schedule: machines sorted by
:func:`~repro.campaign.generator.structure_key` so same-geometry
configs are adjacent, then one fused batch per workload sharing
set-partitions and per-level replay passes across the whole population.

The bench asserts the ISSUE's acceptance bar — the campaign schedule is
>= 5x faster than the naive loop — behind a **bit-identical-digest
gate**: every one of the 6000 (workload, machine) pairs must produce
the same report digest under both paths before any timing counts.  The
generator's discrete perturbation grids are what make the win possible:
1000 machines collapse to tens of distinct structure geometries per
fused pass.

Scale knobs (for CI-sized runs): ``REPRO_BENCH_CAMPAIGN_MACHINES``,
``REPRO_BENCH_CAMPAIGN_INSTRUCTIONS``.
"""

import os
import time

from repro.campaign import generate_machines, pair_digest, structure_key
from repro.perf.trace_cache import TraceCache
from repro.perf.trace_engine import profile_trace_batch
from repro.workloads.spec import get_workload

WORKLOADS = (
    "505.mcf_r",
    "500.perlbench_r",
    "525.x264_r",
    "519.lbm_r",
    "557.xz_r",
    "502.gcc_r",
)
MACHINES = int(os.environ.get("REPRO_BENCH_CAMPAIGN_MACHINES", "1000"))
TRACE_INSTRUCTIONS = int(
    os.environ.get("REPRO_BENCH_CAMPAIGN_INSTRUCTIONS", "20000")
)

#: The acceptance bar: campaign-scheduled sweep speedup over the naive
#: per-machine loop, bit-identical per-pair digests required.
SPEEDUP_FLOOR = 5.0


def _naive_sweep(machines, cache):
    """The loop a campaign engine replaces: one replay per pair."""
    reports = []
    for workload in WORKLOADS:
        spec = get_workload(workload)
        for machine in machines:
            reports.extend(
                profile_trace_batch(
                    spec,
                    [machine],
                    instructions=TRACE_INSTRUCTIONS,
                    trace_cache=cache,
                )
            )
    return reports


def _campaign_sweep(machines, cache):
    """The campaign schedule: structure-sorted fused batches."""
    ordered = sorted(machines, key=structure_key)
    reports = []
    for workload in WORKLOADS:
        reports.extend(
            profile_trace_batch(
                get_workload(workload),
                ordered,
                instructions=TRACE_INSTRUCTIONS,
                trace_cache=cache,
            )
        )
    return reports


def _digests(reports):
    return {
        (report.workload, report.machine): pair_digest(report)
        for report in reports
    }


def test_campaign_sweep_speedup(run_once, benchmark):
    machines = generate_machines(MACHINES)
    cache = TraceCache()
    # Warm the trace cache (synthesis off the clock) via the fast path,
    # then take the one timed naive pass — it doubles as the digest
    # reference, so the 6000-replay baseline runs exactly once.
    campaign_reports = _campaign_sweep(machines, cache)
    t0 = time.perf_counter()
    naive_reports = _naive_sweep(machines, cache)
    naive_time = time.perf_counter() - t0

    # Bit-identity gate: any pair differing between the two schedules
    # disqualifies the speedup before it is measured.
    want = _digests(naive_reports)
    got = _digests(campaign_reports)
    assert len(want) == len(WORKLOADS) * MACHINES
    assert got == want

    campaign_time = float("inf")
    # Best-of-3 on the fast path; the naive baseline is long enough
    # that single-pass noise is proportionally negligible.
    for _ in range(3):
        t0 = time.perf_counter()
        _campaign_sweep(machines, cache)
        campaign_time = min(campaign_time, time.perf_counter() - t0)

    # Set before run_once so the ledger manifest carries these as
    # ``bench.*`` counters for ``repro obs check``.
    benchmark.extra_info["naive_seconds"] = naive_time
    benchmark.extra_info["campaign_seconds"] = campaign_time
    benchmark.extra_info["speedup"] = naive_time / campaign_time
    benchmark.extra_info["machines"] = MACHINES
    benchmark.extra_info["workloads"] = len(WORKLOADS)
    benchmark.extra_info["trace_instructions"] = TRACE_INSTRUCTIONS
    benchmark.extra_info["pairs_bit_identical"] = True
    reports = run_once(_campaign_sweep, machines, cache)
    assert len(reports) == len(WORKLOADS) * MACHINES
    assert naive_time >= SPEEDUP_FLOOR * campaign_time, (
        f"naive {naive_time:.3f}s vs campaign {campaign_time:.3f}s "
        f"({naive_time / campaign_time:.2f}x < {SPEEDUP_FLOOR}x)"
    )
