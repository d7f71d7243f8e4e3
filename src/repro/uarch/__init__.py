"""Microarchitecture simulation substrate.

This package provides the structures whose behaviour the paper measures
through hardware performance counters:

* :mod:`repro.uarch.cache` — set-associative caches with pluggable
  replacement policies.
* :mod:`repro.uarch.tlb` — TLBs, two-level TLB hierarchies and a page
  walker cost model.
* :mod:`repro.uarch.branch` — branch direction predictors (static,
  bimodal, gshare, tournament).
* :mod:`repro.uarch.kernels` and :mod:`repro.uarch.fused` — the
  vectorized whole-trace replay the trace engine runs, bit-identical to
  the scalar simulators above (which the test suite keeps as the
  reference oracle).
* :mod:`repro.uarch.pipeline` — the top-down CPI-stack model used for
  Figure 1.
* :mod:`repro.uarch.power` — a RAPL-style core/LLC/DRAM power model.
* :mod:`repro.uarch.machine` — machine configurations, including the
  seven commercial machines of Table IV and the three Intel machines
  used for the power study.

The exact simulators here are the tests' oracle for the trace-driven
profiling engine (:mod:`repro.perf.trace_engine`); the fast analytic engine
(:mod:`repro.perf.analytic`) uses the same configuration objects but
evaluates workload profiles in closed form.
"""

from repro.uarch.branch import (
    BimodalPredictor,
    BranchPredictor,
    GSharePredictor,
    PredictorSpec,
    StaticPredictor,
    TournamentPredictor,
    build_predictor,
)
from repro.uarch.cache import Cache, CacheConfig, ReplacementPolicy
from repro.uarch.machine import (
    MachineConfig,
    all_machines,
    get_machine,
    paper_machines,
    power_study_machines,
)
from repro.uarch.pipeline import CpiStack, compute_cpi_stack
from repro.uarch.power import PowerModel, PowerSample
from repro.uarch.tlb import PageWalker, Tlb, TlbConfig, TlbHierarchy

__all__ = [
    "BimodalPredictor",
    "BranchPredictor",
    "Cache",
    "CacheConfig",
    "CpiStack",
    "GSharePredictor",
    "MachineConfig",
    "PageWalker",
    "PowerModel",
    "PowerSample",
    "PredictorSpec",
    "ReplacementPolicy",
    "StaticPredictor",
    "Tlb",
    "TlbConfig",
    "TlbHierarchy",
    "TournamentPredictor",
    "all_machines",
    "build_predictor",
    "compute_cpi_stack",
    "get_machine",
    "paper_machines",
    "power_study_machines",
]
