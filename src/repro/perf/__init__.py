"""Performance-counter profiling of workload models on machine models.

This package is the stand-in for the paper's ``perf``-based measurement
infrastructure.  :class:`~repro.perf.profiler.Profiler` evaluates a
:class:`~repro.workloads.spec.WorkloadSpec` on a
:class:`~repro.uarch.machine.MachineConfig` and produces a
:class:`~repro.perf.counters.CounterReport` with the Table III metrics,
a CPI stack (Figure 1), and a RAPL-style power sample (Figure 12).

Two engines are available:

* ``analytic`` (default) — closed-form evaluation of the workload's
  reuse/branch profiles against the machine's structures; fast enough
  to profile the full 80-workload x 7-machine study in seconds.
* ``trace`` — synthesizes a concrete instruction/address trace and
  replays it exactly through the machine's caches, TLBs and branch
  predictor (:mod:`repro.uarch.fused`); slower, used for validation and
  microarchitectural deep dives.

Sweeps scale through :mod:`repro.perf.executor` (parallel pair fan-out
with serial-identical results) and :mod:`repro.perf.diskcache`
(content-addressed persistent result cache).
"""

from repro.perf.counters import ALL_METRICS, CounterReport, Metric
from repro.perf.dataset import FeatureMatrix, build_feature_matrix
from repro.perf.diskcache import DiskCache, cache_key
from repro.perf.executor import ProfilingExecutor
from repro.perf.profiler import CacheInfo, Profiler, profile

__all__ = [
    "ALL_METRICS",
    "CacheInfo",
    "CounterReport",
    "DiskCache",
    "FeatureMatrix",
    "Metric",
    "Profiler",
    "ProfilingExecutor",
    "build_feature_matrix",
    "cache_key",
    "profile",
]
