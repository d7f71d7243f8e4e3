"""CPI calibration of workload models against Table I.

The paper publishes each benchmark's measured Skylake CPI (Table I).
All counter-visible behaviour of our workload models (miss rates,
mispredictions, TLB walks) is fixed by their locality and branch
profiles, but two pipeline-level parameters are not observable through
counters: the workload's exploitable instruction-level parallelism
(``ilp``) and its memory-level parallelism (``mlp``).  This module fits
those two parameters so that the modelled CPI on the Skylake reference
machine reproduces the published CPI:

1. Starting from the spec's nominal ``mlp``, compute the stall
   components of the CPI stack (front-end, bad speculation, back-end
   memory/TLB).  These do not depend on ``ilp``.  Neither parameter
   moves a miss ratio, so the analytic engine's miss-ratio stage runs
   once per spec and the search below repeats only its CPI-stack stage
   (:mod:`repro.perf.analytic`).
2. The remaining budget, ``reference_cpi - stalls``, must be covered by
   the issue-limited base component ``1 / min(width, ilp)``.  If the
   stalls alone overshoot the budget, raise ``mlp`` (more overlapped
   misses) until they fit, up to ``MAX_MLP``.
3. Solve ``ilp = 1 / budget`` and clamp to the modelled range.

Benchmarks without a ``reference_cpi`` (or whose budget cannot be met
within the clamps) keep their nominal parameters; :func:`calibrate_spec`
reports the residual error so the fidelity tests can track it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Tuple

from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:
    from repro.perf.analytic import MissRatios
    from repro.perf.profiler import Profiler
    from repro.uarch.machine import MachineConfig
    from repro.workloads.profiles import RowTable

__all__ = ["calibrate_spec", "calibration_error", "REFERENCE_MACHINE"]

#: Machine against which Table I CPIs were measured.
REFERENCE_MACHINE = "skylake-i7-6700"

#: Clamp ranges for the fitted parameters.  ``mlp`` is interpreted as the
#: *effective* overlap of off-core latency — out-of-order memory-level
#: parallelism plus hardware prefetching — so streaming workloads
#: (bwaves, lbm, roms) legitimately reach large values.
MIN_ILP, MAX_ILP = 0.5, 6.0
MAX_MLP = 32.0


def _stall_cpi(
    spec: WorkloadSpec, machine: MachineConfig, ratios: MissRatios, mlp: float
) -> float:
    """CPI stall components on the reference machine for a given MLP."""
    from repro.perf.analytic import assemble_report

    probe = replace(spec, ilp=machine.width, mlp=mlp)
    stack = assemble_report(probe, machine, ratios).cpi_stack
    return stack.total - stack.base - stack.dependency


def calibrate_spec(
    spec: WorkloadSpec, table: Optional[RowTable] = None
) -> WorkloadSpec:
    """Fit ``ilp``/``mlp`` to the spec's published reference CPI.

    Returns the spec unchanged when it has no ``reference_cpi``.
    ``table`` is the caller's quadrature row table, shared by every fit
    of a registry load (see
    :func:`~repro.workloads.profiles.miss_ratios`).
    """
    if spec.reference_cpi is None:
        return spec
    from repro.obs import metrics as obs_metrics
    from repro.obs.trace import span
    from repro.perf.analytic import miss_ratio_tables
    from repro.uarch.machine import get_machine

    machine = get_machine(REFERENCE_MACHINE)
    width = machine.width
    target = spec.reference_cpi

    with span("calibration.fit", workload=spec.name):
        obs_metrics.incr("calibration.fits")
        (ratios,) = miss_ratio_tables(spec, [machine], table)
        mlp = spec.mlp
        stalls = _stall_cpi(spec, machine, ratios, mlp)
        # Grow MLP until the issue-base budget is feasible (or MLP caps
        # out).
        while target - stalls < 1.0 / width and mlp < MAX_MLP:
            mlp = min(MAX_MLP, mlp * 1.25)
            stalls = _stall_cpi(spec, machine, ratios, mlp)

    budget = max(target - stalls, 1.0 / width)
    ilp = min(MAX_ILP, max(MIN_ILP, 1.0 / budget))
    return replace(spec, ilp=ilp, mlp=mlp)


def calibration_error(
    spec: WorkloadSpec, profiler: Optional[Profiler] = None
) -> Optional[Tuple[float, float]]:
    """(modelled CPI, relative error vs Table I) on the reference machine.

    The pair is profiled through ``profiler`` (a fresh analytic
    :class:`~repro.perf.profiler.Profiler` by default), so a report's
    calibration section shares its memo, disk cache and row table.
    Returns ``None`` when the spec has no reference CPI.
    """
    if spec.reference_cpi is None:
        return None
    from repro.perf.profiler import Profiler

    profiler = profiler or Profiler()
    cpi = profiler.profile(spec, REFERENCE_MACHINE).cpi_stack.total
    return cpi, abs(cpi - spec.reference_cpi) / spec.reference_cpi
