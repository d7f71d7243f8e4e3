"""Shared property-testing harness and reference oracles for parity suites.

Each production path's contract is *bit-identity* with a reference,
not merely statistically similar numbers.

* The trace engine's one production path (geometry-shared traces
  replayed by the fused multi-machine engine) must count exactly what
  the scalar per-access simulators of :mod:`repro.uarch` count.
  :func:`reference_counts` drives those scalar simulators over a trace,
  and two suites hold the engine to it: ``test_kernel_parity.py``
  (component kernels and whole reports against the oracle) and
  ``test_fused_replay.py`` (randomized machine batches against the
  oracle).
* The analytic engine's one production path (every quadrature of a
  machine batch in one array program) must equal one quadrature per
  mixture component per lookup, one pair at a time:
  :func:`reference_miss_ratio`, :func:`reference_analytic_report` and
  :func:`reference_calibration`, held to it by
  ``test_analytic_parity.py``.
* The campaign fold's one production path (one exact fit over the
  store's whole machine matrix) must equal, on every key of every
  fold, a refit that slices each machine's block out of the store
  column by column, :func:`reference_fold`; ``test_campaign.py`` holds
  cold, after-more-shards, mid-campaign and crash-resumed folds to it.

The suites need the same machinery:

* **seeded generators** (stdlib :mod:`random`, never global state) for
  cache/TLB/predictor geometries, machine configs sampled *around* the
  Table IV machines, and workload specs perturbed over their
  locality/branch profiles, so failures replay deterministically from
  the printed seed;
* **comparators** that check *state*, not just statistics: predictor
  counter tables, trace arrays, and canonical report digests;
* **the oracles** themselves.

This module is the single home for all three.  It is a plain helper module
(no ``test_`` prefix), imported by the suites; keeping one copy means a
new fast path gets the whole harness — and the harness gets every
hardening fix exactly once.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import erf

from repro.campaign.store import CampaignStore
from repro.perf.counters import CounterReport, Metric
from repro.perf.diskcache import canonical_encoding
from repro.perf.trace_cache import default_trace_cache, trace_seed
from repro.perf.trace_engine import _assemble_report
from repro.stats.kmeans import kmeans
from repro.stats.pca import fit_pca
from repro.uarch.branch import PredictorSpec, build_predictor
from repro.uarch.cache import CacheConfig, ReplacementPolicy, build_hierarchy
from repro.uarch.fused import FusedCounts
from repro.uarch.machine import MachineConfig, get_machine, paper_machines
from repro.uarch.pipeline import compute_cpi_stack
from repro.uarch.tlb import TlbConfig, TlbHierarchy
from repro.workloads.calibration import MAX_ILP, MAX_MLP, MIN_ILP, REFERENCE_MACHINE
from repro.workloads.constants import AVERAGE_INSTRUCTION_BYTES, TAKEN_LINE_BREAK
from repro.workloads.profiles import ReuseComponent, ReuseProfile
from repro.workloads.spec import WorkloadSpec, all_workloads

#: Predictor kinds understood by build_predictor, in registry order.
PREDICTOR_KINDS = ("static", "bimodal", "gshare", "tournament")

#: Warm-up fractions exercised by the property suites (0.0 = count
#: everything; 0.5 = the paper-style half-warm split).
WARMUP_FRACTIONS = (0.0, 0.1, 0.25, 0.5)


# ---------------------------------------------------------------------------
# deterministic seeding
# ---------------------------------------------------------------------------


def stable_seed(*parts: object) -> int:
    """A process-invariant 63-bit seed derived from ``parts``.

    Never ``hash()``: string hashing is randomized per process, which
    would make a property-test failure unreproducible.
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def rng_for(*parts: object) -> random.Random:
    """A dedicated stdlib generator seeded from ``parts``."""
    return random.Random(stable_seed(*parts))


# ---------------------------------------------------------------------------
# config generators
# ---------------------------------------------------------------------------


def sample_policy(rnd: random.Random) -> ReplacementPolicy:
    """A uniformly random replacement policy."""
    return rnd.choice(list(ReplacementPolicy))


def sample_cache_config(
    rnd: random.Random,
    line_bytes: Optional[int] = None,
    policy: Optional[ReplacementPolicy] = None,
) -> CacheConfig:
    """A small random cache geometry (incl. non-power-of-two set counts).

    Small on purpose: tiny caches conflict and evict constantly, which
    is exactly where replacement-state divergence would show.
    """
    associativity = rnd.choice([1, 2, 4, 8])
    line = line_bytes if line_bytes is not None else rnd.choice([32, 64])
    sets = rnd.choice([2, 3, 4, 6, 8, 16])
    return CacheConfig(
        size_bytes=line * associativity * sets,
        line_bytes=line,
        associativity=associativity,
        policy=policy if policy is not None else sample_policy(rnd),
    )


def sample_tlb_config(
    rnd: random.Random, page_bytes: int = 4096
) -> TlbConfig:
    """A small random TLB geometry (associativity divides entries)."""
    associativity = rnd.choice([2, 4, 8])
    entries = associativity * rnd.choice([2, 4, 8, 16])
    return TlbConfig(
        entries=entries, associativity=associativity, page_bytes=page_bytes
    )


def sample_predictor_spec(rnd: random.Random) -> PredictorSpec:
    """A random predictor over every kind and a range of table sizes."""
    return PredictorSpec(
        kind=rnd.choice(PREDICTOR_KINDS),
        strength=round(rnd.uniform(0.5, 0.99), 3),
        table_entries=rnd.choice([64, 256, 1024, 4096]),
    )


def _scale_cache(
    rnd: random.Random, config: CacheConfig
) -> CacheConfig:
    """Resize a cache around its Table IV geometry, keeping it valid."""
    factor = rnd.choice([0.5, 1.0, 2.0])
    associativity = rnd.choice([config.associativity, 2, 4])
    quantum = config.line_bytes * associativity
    size = max(quantum, int(config.size_bytes * factor) // quantum * quantum)
    return replace(
        config, size_bytes=size, associativity=associativity
    )


def _scale_tlb(rnd: random.Random, config: TlbConfig) -> TlbConfig:
    """Resize a TLB around its Table IV geometry, keeping it valid."""
    factor = rnd.choice([0.5, 1.0, 2.0])
    entries = max(
        config.associativity,
        int(config.entries * factor)
        // config.associativity
        * config.associativity,
    )
    return replace(config, entries=entries)


def sample_machine(
    rnd: random.Random, base: Optional[MachineConfig] = None
) -> MachineConfig:
    """A machine sampled *around* one of the Table IV machines.

    Every structural knob (cache sizes/ways, TLB entries, predictor
    kind/table, memory latency) is perturbed, but the trace-shaping
    geometry — ``(line_bytes, page_bytes)`` — is inherited from the
    base so sampled machines keep sharing traces the way the paper
    machines do.
    """
    base = base if base is not None else rnd.choice(paper_machines())
    changes = {
        "name": f"{base.name}+prop{rnd.randrange(1 << 16)}",
        "l1i": _scale_cache(rnd, base.l1i),
        "l1d": _scale_cache(rnd, base.l1d),
        "l2": _scale_cache(rnd, base.l2),
        "itlb": _scale_tlb(rnd, base.itlb),
        "dtlb": _scale_tlb(rnd, base.dtlb),
        "predictor": replace(
            sample_predictor_spec(rnd),
            mispredict_penalty=base.predictor.mispredict_penalty,
        ),
        "latencies": replace(
            base.latencies,
            memory=base.latencies.memory * rnd.uniform(0.8, 1.25),
        ),
    }
    if base.l3 is not None:
        changes["l3"] = _scale_cache(rnd, base.l3)
    if base.l2tlb is not None:
        changes["l2tlb"] = _scale_tlb(rnd, base.l2tlb)
    return replace(base, **changes)


def sample_machine_batch(
    rnd: random.Random, size: int, base: Optional[MachineConfig] = None
) -> List[MachineConfig]:
    """A geometry-sharing batch of ``size`` machines around one base.

    This is the fused-replay input shape: one trace, many machines with
    equal ``(line_bytes, page_bytes)`` — including occasional exact
    duplicates, which exercise the memoized simulation paths.
    """
    base = base if base is not None else rnd.choice(paper_machines())
    machines = [sample_machine(rnd, base) for _ in range(size)]
    if size > 1 and rnd.random() < 0.3:
        machines[-1] = machines[0]  # duplicate config in one batch
    return machines


def with_sampled_policies(
    rnd: random.Random, machine: MachineConfig
) -> MachineConfig:
    """``machine`` with a random replacement policy on every cache level.

    The paper machines are all LRU; this puts the FIFO/RANDOM exact
    replay paths under the same randomized machine batches.
    """
    levels = {"l1i": machine.l1i, "l1d": machine.l1d, "l2": machine.l2}
    if machine.l3 is not None:
        levels["l3"] = machine.l3
    return replace(
        machine,
        **{
            name: replace(config, policy=sample_policy(rnd))
            for name, config in levels.items()
        },
    )


def sample_workload(rnd: random.Random) -> WorkloadSpec:
    """A real workload spec perturbed over its locality/branch profiles.

    Perturbing (rather than fabricating) keeps the sampled traces in
    the regime the models were built for while still varying page
    locality, streaming cold mass and branch bias.
    """
    spec = rnd.choice(all_workloads())
    branches = replace(
        spec.branches,
        taken_fraction=min(
            0.95,
            max(0.05, spec.branches.taken_fraction * rnd.uniform(0.8, 1.2)),
        ),
    )
    data_reuse = replace(
        spec.data_reuse,
        cold_fraction=min(
            0.9, spec.data_reuse.cold_fraction * rnd.uniform(0.5, 1.5)
        ),
    )
    return replace(
        spec,
        branches=branches,
        data_reuse=data_reuse,
        data_page_factor=min(
            64.0,
            max(1.0, spec.data_page_factor * rnd.choice([0.5, 1.0, 2.0])),
        ),
    )


def sample_warmup(rnd: random.Random) -> float:
    """One of the exercised warm-up fractions."""
    return rnd.choice(WARMUP_FRACTIONS)


def sample_window(rnd: random.Random) -> int:
    """A trace window length in the 1k–5k property-test range."""
    return rnd.choice([1_000, 2_000, 3_000, 5_000])


# ---------------------------------------------------------------------------
# state comparators
# ---------------------------------------------------------------------------


def assert_predictor_states_equal(vec, ref) -> None:
    """Counter-table/chooser/history equality of two predictors."""
    for attr in ("_counters", "_chooser", "_history"):
        if hasattr(ref, attr):
            a, b = getattr(vec, attr), getattr(ref, attr)
            if isinstance(b, np.ndarray):
                assert np.array_equal(a, b)
            else:
                assert a == b
    if hasattr(ref, "_bimodal"):  # tournament internals
        assert np.array_equal(vec._bimodal._counters, ref._bimodal._counters)
        assert np.array_equal(vec._gshare._counters, ref._gshare._counters)
        assert vec._gshare._history == ref._gshare._history


def trace_arrays(trace) -> Tuple[np.ndarray, ...]:
    """The five arrays that constitute a synthesized trace."""
    return (
        trace.data_addresses,
        trace.data_is_store,
        trace.ifetch_addresses,
        trace.branch_sites,
        trace.branch_taken,
    )


def traces_equal(a, b) -> bool:
    """Bit-identity of two traces (every array, every element)."""
    return all(
        np.array_equal(x, y) for x, y in zip(trace_arrays(a), trace_arrays(b))
    )


def report_digest(report) -> str:
    """Canonical content digest of one :class:`CounterReport`.

    Uses the disk cache's canonical encoding, so two reports share a
    digest iff every field — metrics, CPI stack, power, instruction
    count — is bit-identical (floats encode via ``repr``).
    """
    encoded = json.dumps(
        canonical_encoding(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


def assert_reports_identical(got, want, context: str = "") -> None:
    """Bit-identity of two reports, with a digest cross-check.

    Field comparisons fail first (they name the diverging metric);
    the digest comparison then guarantees nothing escaped them.
    """
    label = f" [{context}]" if context else ""
    assert got.workload == want.workload, label
    assert got.machine == want.machine, label
    assert got.metrics == want.metrics, f"metrics diverge{label}"
    assert got.cpi_stack == want.cpi_stack, f"cpi_stack diverges{label}"
    assert got.instructions == want.instructions, label
    assert report_digest(got) == report_digest(want), label


# ---------------------------------------------------------------------------
# the trace engine's reference oracle
# ---------------------------------------------------------------------------


def _scalar_chain(machine: MachineConfig, first_level: str) -> list:
    """Fresh L1 -> L2 [-> L3] scalar caches for one stream."""
    configs = [getattr(machine, first_level), machine.l2]
    if machine.l3 is not None:
        configs.append(machine.l3)
    return build_hierarchy(configs)


def _reset_tlb_stats(tlbs: TlbHierarchy) -> None:
    """Zero TLB statistics while keeping resident entries (warm-up cut)."""
    seen = set()
    for tlb in (tlbs.itlb, tlbs.dtlb, tlbs.l2_itlb, tlbs.l2_dtlb):
        if tlb is not None and id(tlb) not in seen:
            tlb.accesses = 0
            tlb.misses = 0
            seen.add(id(tlb))
    tlbs.page_walks = 0


def reference_counts(
    machine: MachineConfig, trace, warmup_fraction: float
) -> FusedCounts:
    """Post-warm-up event counts of one machine, one access at a time.

    The trace engine's reference oracle: every access of ``trace``
    goes through the scalar :class:`~repro.uarch.cache.Cache` chains
    (stores included), the :class:`~repro.uarch.tlb.TlbHierarchy` and
    the predictor's ``predict_and_update``.  Statistics are zeroed at
    each stream's warm-up index, so they count only the measured
    remainder while the structures stay warm.
    """
    # ---- data caches ---------------------------------------------------
    data_chain = _scalar_chain(machine, "l1d")
    warm = int(trace.data_refs * warmup_fraction)
    for i, (address, is_store) in enumerate(
        zip(trace.data_addresses.tolist(), trace.data_is_store.tolist())
    ):
        if i == warm:
            for level in data_chain:
                level.stats.reset()
        data_chain[0].access(address, is_write=is_store)
    # Writebacks inflate outer-level accesses but are not demand misses;
    # demand misses are each level's recorded miss count.
    data_misses = [level.stats.misses for level in data_chain]

    # ---- instruction caches --------------------------------------------
    inst_chain = _scalar_chain(machine, "l1i")
    warm = int(trace.ifetch_addresses.size * warmup_fraction)
    for i, address in enumerate(trace.ifetch_addresses.tolist()):
        if i == warm:
            for level in inst_chain:
                level.stats.reset()
        inst_chain[0].access(address)
    inst_misses = [level.stats.misses for level in inst_chain]

    # ---- TLBs: data stream first, then instructions ---------------------
    tlbs = TlbHierarchy(
        itlb=machine.itlb,
        dtlb=machine.dtlb,
        l2=machine.l2tlb,
        unified_l2=machine.unified_l2tlb,
        walker=machine.walker,
    )
    warm = int(trace.data_refs * warmup_fraction)
    for i, address in enumerate(trace.data_addresses.tolist()):
        if i == warm:
            _reset_tlb_stats(tlbs)
        tlbs.translate_data(address)
    dtlb_misses = tlbs.dtlb.misses
    data_walks = tlbs.page_walks
    warm = int(trace.ifetch_addresses.size * warmup_fraction)
    itlb_baseline_misses = 0
    walks_baseline = tlbs.page_walks
    for i, address in enumerate(trace.ifetch_addresses.tolist()):
        if i == warm:
            itlb_baseline_misses = tlbs.itlb.misses
            walks_baseline = tlbs.page_walks - data_walks
        tlbs.translate_inst(address)
    itlb_misses = tlbs.itlb.misses - itlb_baseline_misses
    total_walks = data_walks + (tlbs.page_walks - data_walks - walks_baseline)

    # ---- branches -------------------------------------------------------
    predictor = build_predictor(machine.predictor)
    mispredicts = 0
    taken_count = 0
    warm = int(trace.branches * warmup_fraction)
    for i, (site, taken) in enumerate(
        zip(trace.branch_sites.tolist(), trace.branch_taken.tolist())
    ):
        correct = predictor.predict_and_update(site, taken)
        if i >= warm:
            mispredicts += not correct
            taken_count += taken

    return FusedCounts(
        data_misses=data_misses,
        inst_misses=inst_misses,
        dtlb_misses=dtlb_misses,
        data_walks=data_walks,
        itlb_misses=itlb_misses,
        total_walks=total_walks,
        last_tlb_misses=tlbs.last_level_misses(),
        mispredicts=mispredicts,
        taken_count=taken_count,
    )


def reference_report(
    spec: WorkloadSpec,
    machine: MachineConfig,
    instructions: int = 200_000,
    seed: int = 2017,
    warmup_fraction: float = 0.25,
):
    """The :class:`CounterReport` the oracle's counts assemble into.

    Replays the very trace the engine would (same geometry-keyed seed,
    same shared trace cache), so any difference from
    :func:`repro.perf.trace_engine.profile_trace` is a replay bug.
    """
    trace = default_trace_cache().get_or_synthesize(
        spec,
        instructions,
        seed=trace_seed(seed, spec, machine, instructions),
        line_bytes=machine.l1d.line_bytes,
        page_bytes=machine.dtlb.page_bytes,
    )
    counts = reference_counts(machine, trace, warmup_fraction)
    return _assemble_report(
        spec, machine, instructions, warmup_fraction, counts
    )


# ---------------------------------------------------------------------------
# the analytic engine's reference oracle
# ---------------------------------------------------------------------------

#: The analytic engine's quadrature: points per component, and the span
#: of the log-distance grid in standard deviations.
QUADRATURE_POINTS = 512
QUADRATURE_SPAN = 6.0


def _reference_hit_probability(
    distances: np.ndarray, capacity_blocks: float, associativity: int
) -> np.ndarray:
    """``P(hit | d)`` under the binomial set-occupancy model."""
    finite = np.isfinite(distances)
    result = np.zeros_like(distances, dtype=float)
    sets = max(1.0, capacity_blocks / associativity)
    d = distances[finite]
    if sets <= 1.0:
        result[finite] = (d < associativity).astype(float)
        return result
    # P(hit | d) = P(Binomial(d, 1/sets) <= assoc - 1), normal
    # approximation; exactly 1 for d < assoc.
    p = 1.0 / sets
    mean = d * p
    var = np.maximum(d * p * (1.0 - p), 1e-12)
    z = (associativity - 0.5 - mean) / np.sqrt(var)
    approx = 0.5 * (1.0 + erf(z / math.sqrt(2.0)))
    approx[d < associativity] = 1.0
    result[finite] = approx
    return result


def _reference_component_hit(
    component: ReuseComponent, capacity_blocks: float, associativity: int
) -> float:
    """Integrate ``P(hit | d)`` over one lognormal component."""
    if associativity <= 0:
        # Fully associative LRU: hit iff d < capacity.
        z = (math.log(capacity_blocks) - component.mu) / component.sigma
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    low = component.mu - QUADRATURE_SPAN * component.sigma
    high = component.mu + QUADRATURE_SPAN * component.sigma
    log_d = np.linspace(low, high, QUADRATURE_POINTS)
    density = np.exp(-0.5 * ((log_d - component.mu) / component.sigma) ** 2)
    density /= density.sum()
    hit = _reference_hit_probability(
        np.exp(log_d), capacity_blocks, associativity
    )
    return float((density * hit).sum())


def reference_miss_ratio(
    profile: ReuseProfile, capacity_blocks: float, associativity: int = 0
) -> float:
    """:meth:`ReuseProfile.miss_ratio`, one component quadrature at a time."""
    if capacity_blocks <= 0.0:
        return 1.0
    warm_hit = 0.0
    for weight, component in zip(profile.normalized_weights, profile.components):
        warm_hit += weight * _reference_component_hit(
            component, capacity_blocks, associativity
        )
    return float(min(1.0, max(0.0, 1.0 - warm_hit)))


def _monotone(*ratios: float) -> tuple:
    """Clamp a sequence of global miss ratios to be non-increasing."""
    result = []
    ceiling = 1.0
    for ratio in ratios:
        ratio = min(ratio, ceiling)
        result.append(ratio)
        ceiling = ratio
    return tuple(result)


def reference_analytic_report(spec: WorkloadSpec, machine: MachineConfig):
    """The analytic :class:`CounterReport` of one pair, one lookup at a time.

    The engine's per-pair body before batching, with every miss ratio
    from :func:`reference_miss_ratio`.
    """
    factor = machine.isa_path_factor
    mix = spec.mix
    branches = mix.branch * 1000.0
    taken = branches * spec.branches.taken_fraction
    mem_refs = mix.memory * 1000.0
    ifetch_lines = (
        1000.0 * AVERAGE_INSTRUCTION_BYTES / machine.l1d.line_bytes
        + TAKEN_LINE_BREAK * taken
    )

    # ---- caches (global miss ratios, line granularity) -------------------
    data = spec.data_reuse
    inst = spec.inst_reuse
    l1d_ratio = reference_miss_ratio(
        data, machine.l1d.num_lines, machine.l1d.associativity
    )
    l2d_ratio = reference_miss_ratio(
        data, machine.l2.num_lines, machine.l2.associativity
    )
    if machine.l3 is not None:
        l3d_ratio = reference_miss_ratio(
            data, machine.l3.num_lines, machine.l3.associativity
        )
    else:
        l3d_ratio = l2d_ratio
    l1d_ratio, l2d_ratio, l3d_ratio = _monotone(l1d_ratio, l2d_ratio, l3d_ratio)

    l1i_ratio = reference_miss_ratio(
        inst, machine.l1i.num_lines, machine.l1i.associativity
    )
    l2i_ratio = reference_miss_ratio(
        inst, machine.l2.num_lines, machine.l2.associativity
    )
    if machine.l3 is not None:
        l3i_ratio = reference_miss_ratio(
            inst, machine.l3.num_lines, machine.l3.associativity
        )
    else:
        l3i_ratio = l2i_ratio
    l1i_ratio, l2i_ratio, l3i_ratio = _monotone(l1i_ratio, l2i_ratio, l3i_ratio)

    l1d = l1d_ratio * mem_refs
    l2d = l2d_ratio * mem_refs
    l3d = l3d_ratio * mem_refs
    l1i = l1i_ratio * ifetch_lines
    l2i = l2i_ratio * ifetch_lines
    l3i = l3i_ratio * ifetch_lines

    # ---- TLBs (page granularity) -----------------------------------------
    page_scale = machine.dtlb.page_bytes / 4096.0
    lines_per_page = machine.dtlb.page_bytes / machine.l1d.line_bytes
    dpage_factor = min(lines_per_page, spec.data_page_factor * page_scale)
    ipage_factor = min(lines_per_page, spec.inst_page_factor * page_scale)
    dpages = data.scaled(1.0 / dpage_factor)
    ipages = inst.scaled(1.0 / ipage_factor)

    dtlb_misses = reference_miss_ratio(
        dpages, machine.dtlb.entries, machine.dtlb.associativity
    ) * mem_refs
    itlb_misses = reference_miss_ratio(
        ipages, machine.itlb.entries, machine.itlb.associativity
    ) * ifetch_lines
    if machine.l2tlb is not None:
        l2tlb = machine.l2tlb
        dwalk_ratio = reference_miss_ratio(dpages, l2tlb.entries, l2tlb.associativity)
        iwalk_ratio = reference_miss_ratio(ipages, l2tlb.entries, l2tlb.associativity)
        dwalks = min(dtlb_misses, dwalk_ratio * mem_refs)
        iwalks = min(itlb_misses, iwalk_ratio * ifetch_lines)
        last_tlb_misses = dwalks + iwalks
    else:
        dwalks, iwalks = dtlb_misses, itlb_misses
        last_tlb_misses = dtlb_misses + itlb_misses

    # ---- branches ----------------------------------------------------------
    predictor = machine.predictor
    mispredict = spec.branches.mispredict_rate(
        predictor.strength, predictor.table_entries
    )
    branch_misses = mispredict * branches

    # ---- renormalize everything to machine instructions -------------------
    def per_ki(x86_value: float) -> float:
        return x86_value / factor

    metrics = {
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
        Metric.BRANCH_TAKEN_PKI: per_ki(taken),
    }
    extra = factor - 1.0
    metrics[Metric.PCT_LOAD] = mix.load / factor * 100.0
    metrics[Metric.PCT_STORE] = mix.store / factor * 100.0
    metrics[Metric.PCT_BRANCH] = mix.branch / factor * 100.0
    metrics[Metric.PCT_FP] = mix.fp / factor * 100.0
    metrics[Metric.PCT_SIMD] = mix.simd / factor * 100.0
    metrics[Metric.PCT_INT] = (mix.int_alu + mix.other + extra) / factor * 100.0
    metrics[Metric.PCT_KERNEL] = mix.kernel * 100.0
    metrics[Metric.PCT_USER] = (1.0 - mix.kernel) * 100.0

    # ---- CPI stack and power ---------------------------------------------
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


def reference_calibration(spec: WorkloadSpec) -> WorkloadSpec:
    """The Table I fit, re-profiling the pair at every MLP step."""
    if spec.reference_cpi is None:
        return spec
    machine = get_machine(REFERENCE_MACHINE)
    width = machine.width

    def stall_cpi(mlp: float) -> float:
        probe = replace(spec, ilp=width, mlp=mlp)
        stack = reference_analytic_report(probe, machine).cpi_stack
        return stack.total - stack.base - stack.dependency

    mlp = spec.mlp
    stalls = stall_cpi(mlp)
    while spec.reference_cpi - stalls < 1.0 / width and mlp < MAX_MLP:
        mlp = min(MAX_MLP, mlp * 1.25)
        stalls = stall_cpi(mlp)
    budget = max(spec.reference_cpi - stalls, 1.0 / width)
    ilp = min(MAX_ILP, max(MIN_ILP, 1.0 / budget))
    return replace(spec, ilp=ilp, mlp=mlp)


# ---------------------------------------------------------------------------
# the campaign fold's reference oracle
# ---------------------------------------------------------------------------


def reference_fold(store: CampaignStore, clusters: int, seed: int) -> dict:
    """The batch campaign fold: one full refit over every landed machine.

    Slices each machine's (workloads x metrics) block out of the store's
    columns, keeps the machines whose every cell has landed, and fits
    ``fit_pca`` + ``kmeans`` (8 k-means++ restarts) + representatives
    over their raveled blocks.
    """
    columns = [np.asarray(store.column(metric)) for metric in store.metrics]
    n_workloads = len(store.workloads)
    names, rows = [], []
    for index, name in enumerate(store.machines):
        start = index * n_workloads
        block = np.stack(
            [column[start:start + n_workloads] for column in columns], axis=1
        )
        if not np.isnan(block).any():
            names.append(name)
            rows.append(block.ravel())
    labels = tuple(
        f"{workload}:{metric}"
        for workload in store.workloads
        for metric in store.metrics
    )
    pca = fit_pca(np.stack(rows), feature_labels=labels)
    scores = pca.retained_scores()
    clustering = kmeans(scores, min(clusters, len(names)), seed=seed)
    return {
        "machines_analyzed": len(names),
        "machines_total": len(store.machines),
        "features": len(labels),
        "kaiser_components": pca.kaiser_components,
        "cumulative_variance": pca.cumulative_variance(),
        "clusters": clustering.clusters(names),
        "representatives": clustering.representatives(scores, names),
        "inertia": clustering.inertia,
    }
