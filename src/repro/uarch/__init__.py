"""Microarchitecture substrate: machine structures and their replay.

This package describes the structures whose behaviour the paper
measures through hardware performance counters, and replays them:

* :mod:`repro.uarch.cache`, :mod:`repro.uarch.tlb` and
  :mod:`repro.uarch.branch` — the configuration of a machine's cache
  levels (geometry, latency, LRU/FIFO/RANDOM replacement), TLBs with
  their page-walk cost model, and branch direction predictor.
* :mod:`repro.uarch.kernels` and :mod:`repro.uarch.fused` — the one
  replay path of the trace engine (:mod:`repro.perf.trace_engine`): a
  synthesized trace goes through every cache, TLB and predictor of a
  machine batch in shared passes.
* :mod:`repro.uarch.pipeline` — the top-down CPI-stack model used for
  Figure 1.
* :mod:`repro.uarch.power` — a RAPL-style core/LLC/DRAM power model.
* :mod:`repro.uarch.machine` — machine configurations, including the
  seven commercial machines of Table IV and the three Intel machines
  used for the power study.

The fast analytic engine (:mod:`repro.perf.analytic`) reads the same
configuration objects but evaluates workload profiles in closed form.
The scalar per-access simulators that the replay is tested against
live with the tests (``tests/scalar_uarch.py``), not here.
"""

from repro.uarch.branch import PredictorSpec
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.machine import (
    MachineConfig,
    all_machines,
    get_machine,
    paper_machines,
    power_study_machines,
)
from repro.uarch.pipeline import CpiStack, compute_cpi_stack
from repro.uarch.power import PowerModel, PowerSample
from repro.uarch.tlb import PageWalker, TlbConfig

__all__ = [
    "CacheConfig",
    "CpiStack",
    "MachineConfig",
    "PageWalker",
    "PowerModel",
    "PowerSample",
    "PredictorSpec",
    "ReplacementPolicy",
    "TlbConfig",
    "all_machines",
    "compute_cpi_stack",
    "get_machine",
    "paper_machines",
    "power_study_machines",
]
