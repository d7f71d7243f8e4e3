"""Bit-identity of the trace engine's kernels against the scalar oracle.

The contract (DESIGN.md, "Trace engine"): the batch kernels of
:mod:`repro.uarch.kernels` and the fused replay of
:mod:`repro.uarch.fused` count exactly what the scalar per-access
simulators count — same per-level miss counts, TLB walks, mispredicts
and warm-up cut semantics, and the same RANDOM-policy victim draws.

The property-based classes drive both over seeded randomized geometries
and streams from the shared :mod:`tests.parity` harness (stdlib
``random`` via :func:`tests.parity.rng_for`, hash-based seeds, so
failures replay deterministically across processes).  The component
classes feed raw random address streams to
:func:`~repro.uarch.fused.replay_fused` and compare with
:func:`tests.parity.reference_counts`; the engine class compares whole
reports with :func:`tests.parity.reference_report`.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from tests.parity import (
    WARMUP_FRACTIONS,
    assert_reports_identical,
    reference_counts,
    reference_report,
    rng_for,
    sample_cache_config,
    sample_predictor_spec,
    sample_tlb_config,
)
from tests.scalar_uarch import Cache, build_predictor

from repro.errors import ConfigurationError
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.perf.trace_engine import profile_trace, profile_trace_batch
from repro.uarch.branch import (
    GSHARE_HISTORY_BITS,
    PredictorSpec,
    predictor_table_entries,
)
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.fused import replay_fused
from repro.uarch.kernels import BranchTables, _group_by_set, _simulate_level
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine, paper_machines
from repro.uarch.tlb import TlbConfig
from repro.workloads.spec import get_workload
from repro.workloads.synthesis import SyntheticTrace


def _random_trace(rnd, n: int, address_bits: int) -> SyntheticTrace:
    """``n`` uniformly random data/fetch/branch events."""

    def addresses():
        return np.array(
            [rnd.randrange(0, 1 << address_bits) for _ in range(n)],
            dtype=np.int64,
        )

    return SyntheticTrace(
        instructions=max(n, 1),
        data_addresses=addresses(),
        data_is_store=np.array([rnd.random() < 0.3 for _ in range(n)], bool),
        ifetch_addresses=addresses(),
        branch_sites=np.array(
            [rnd.randrange(0, 1 << 12) for _ in range(n)], dtype=np.int64
        ),
        branch_taken=np.array([rnd.random() < 0.6 for _ in range(n)], bool),
    )


def _assert_fused_matches_reference(machines, trace, warmup, context):
    fused = replay_fused(
        machines,
        trace.data_addresses,
        trace.ifetch_addresses,
        trace.branch_sites,
        trace.branch_taken,
        warmup,
    )
    for machine, got in zip(machines, fused):
        want = reference_counts(machine, trace, warmup)
        assert got == want, f"{context} machine={machine.name}"


class TestCacheParity:
    """Fused cache-chain replay vs. the scalar access loop."""

    @pytest.mark.parametrize("policy", list(ReplacementPolicy))
    def test_randomized_chains(self, policy):
        rnd = rng_for("cache-parity", policy.value)
        for trial in range(12):
            machines = []
            for slot in range(rnd.choice([1, 2, 3])):
                base = rnd.choice(paper_machines())
                l1d = (
                    machines[-1].l1d
                    if machines and rnd.random() < 0.5
                    else sample_cache_config(rnd, policy=policy)
                )
                machines.append(
                    replace(
                        base,
                        name=f"chain{slot}",
                        l1d=l1d,
                        l1i=sample_cache_config(rnd, policy=policy),
                        l2=sample_cache_config(rnd, policy=policy),
                        l3=(
                            sample_cache_config(rnd, policy=policy)
                            if rnd.random() < 0.5
                            else None
                        ),
                    )
                )
            trace = _random_trace(rnd, rnd.choice([0, 1, 7, 250, 600]), 14)
            warmup = rnd.choice(WARMUP_FRACTIONS)
            _assert_fused_matches_reference(
                machines, trace, warmup, f"trial={trial} warmup={warmup}"
            )

    def test_hit_array_matches_scalar_outcomes(self):
        rnd = rng_for("cache-hit-array")
        addrs = np.array(
            [rnd.randrange(0, 1 << 12) for _ in range(300)], dtype=np.int64
        )
        for policy in (ReplacementPolicy.FIFO, ReplacementPolicy.RANDOM):
            config = CacheConfig(
                size_bytes=1024, line_bytes=64, associativity=2, policy=policy
            )
            cache = Cache(config)
            expected = [
                pos
                for pos, address in enumerate(addrs.tolist())
                if not cache.access(address)
            ]
            got = _simulate_level(config, addrs)
            assert got.tolist() == expected, policy


class TestTlbParity:
    """Fused TLB replay vs. the scalar translate loop."""

    @pytest.mark.parametrize("shape", ["no_l2", "unified", "split"])
    def test_randomized_hierarchies(self, shape):
        rnd = rng_for("tlb-parity", shape)
        for trial in range(12):
            machines = [
                replace(
                    rnd.choice(paper_machines()),
                    name=f"tlb{slot}",
                    itlb=sample_tlb_config(rnd),
                    dtlb=sample_tlb_config(rnd),
                    l2tlb=(
                        None
                        if shape == "no_l2"
                        else TlbConfig(entries=128, associativity=8)
                    ),
                    unified_l2tlb=shape == "unified",
                )
                for slot in range(rnd.choice([1, 2, 3]))
            ]
            trace = _random_trace(rnd, rnd.choice([0, 5, 400]), 30)
            warmup = rnd.choice(WARMUP_FRACTIONS)
            _assert_fused_matches_reference(
                machines, trace, warmup, f"trial={trial} warmup={warmup}"
            )

    def test_walks_flag_marks_last_level_misses(self):
        # Without an L2 TLB, every L1 miss walks.
        l1 = TlbConfig(entries=8, associativity=2)
        machine = replace(
            get_machine("skylake-i7-6700"), itlb=l1, dtlb=l1, l2tlb=None
        )
        addrs = np.arange(0, 64 << 12, 1 << 12, dtype=np.int64)
        trace = SyntheticTrace(
            instructions=64,
            data_addresses=addrs,
            data_is_store=np.zeros(64, bool),
            ifetch_addresses=addrs,
            branch_sites=addrs[:0],
            branch_taken=np.zeros(0, bool),
        )
        (counts,) = replay_fused(
            [machine], addrs, addrs, trace.branch_sites, trace.branch_taken, 0.0
        )
        assert counts.dtlb_misses == 64
        assert counts.data_walks == counts.dtlb_misses
        assert counts.total_walks == counts.dtlb_misses + counts.itlb_misses
        assert counts == reference_counts(machine, trace, 0.0)


def _scalar_correct(spec: PredictorSpec, pcs, taken) -> np.ndarray:
    """The scalar oracle: ``predict_and_update`` per branch, in order."""
    predictor = build_predictor(spec)
    return np.array(
        [
            predictor.predict_and_update(int(p), bool(t))
            for p, t in zip(pcs, taken)
        ],
        dtype=bool,
    )


def _kernel_correct(spec: PredictorSpec, pcs, taken) -> np.ndarray:
    preds = BranchTables(pcs, taken).predict(
        spec.kind, predictor_table_entries(spec)
    )
    return preds == taken


class TestPredictorParity:
    """BranchTables.predict vs. the scalar predict_and_update loop."""

    @pytest.mark.parametrize(
        "kind", ["static", "bimodal", "gshare", "tournament"]
    )
    def test_randomized_streams(self, kind):
        rnd = rng_for("predictor-parity", kind)
        for trial in range(12):
            spec = PredictorSpec(
                kind=kind,
                table_entries=sample_predictor_spec(rnd).table_entries,
            )
            n = rnd.choice([0, 3, 500])
            pcs = np.array(
                [rnd.randrange(0, 1 << 16) for _ in range(n)], dtype=np.int64
            )
            taken = np.array(
                [rnd.random() < 0.6 for _ in range(n)], dtype=bool
            )
            expected = _scalar_correct(spec, pcs, taken)
            got = _kernel_correct(spec, pcs, taken)
            assert np.array_equal(got, expected), f"trial={trial}"


class TestBranchTables:
    """Table sharing and the index-range cap, against the scalar loop."""

    KINDS = ("bimodal", "gshare", "tournament")

    @staticmethod
    def _stream(rnd, n: int, low: int, high: int):
        pcs = np.array(
            [rnd.randrange(low, high) for _ in range(n)], dtype=np.int64
        )
        taken = np.array([rnd.random() < 0.6 for _ in range(n)], dtype=bool)
        return pcs, taken

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("factor", [2, 16])
    def test_wide_tables_predict_like_the_capped_table(self, kind, factor):
        # Sites below 2**13 put the cap at 8,192 entries.
        rnd = rng_for("branch-cap", kind, factor)
        pcs, taken = self._stream(rnd, 3_000, 0, 1 << 13)
        tables = BranchTables(pcs, taken)
        assert tables.cap == 1 << 13
        spec = PredictorSpec(kind=kind, table_entries=factor << 13)
        got = tables.predict(kind, factor << 13) == taken
        assert np.array_equal(got, _scalar_correct(spec, pcs, taken))
        assert (kind, 1 << 13) in tables.predictions
        capped = tables.predict(kind, 1 << 13)
        assert capped is tables.predict(kind, factor << 13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_narrow_table_still_aliases_exactly(self, kind):
        rnd = rng_for("branch-alias", kind)
        pcs, taken = self._stream(rnd, 3_000, 0, 1 << 13)
        spec = PredictorSpec(kind=kind, table_entries=1 << 9)
        assert np.array_equal(
            _kernel_correct(spec, pcs, taken),
            _scalar_correct(spec, pcs, taken),
        )

    def test_small_sites_cap_at_the_history_width(self):
        # gshare indexes (pc ^ history): the cap never drops below the
        # 12-bit history, however small the sites.
        pcs = np.arange(40, dtype=np.int64) % 7
        tables = BranchTables(pcs, pcs % 3 == 0)
        assert tables.cap == 1 << GSHARE_HISTORY_BITS

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_sites_skip_the_cap(self, kind):
        rnd = rng_for("branch-negative", kind)
        pcs, taken = self._stream(rnd, 2_000, -(1 << 10), 1 << 10)
        tables = BranchTables(pcs, taken)
        assert tables.cap is None
        spec = PredictorSpec(kind=kind, table_entries=1 << 14)
        got = tables.predict(kind, 1 << 14) == taken
        assert np.array_equal(got, _scalar_correct(spec, pcs, taken))
        assert (kind, 1 << 14) in tables.predictions

    def test_tournament_shares_standalone_components(self):
        rnd = rng_for("branch-share")
        pcs, taken = self._stream(rnd, 1_000, 0, 1 << 10)
        tables = BranchTables(pcs, taken)
        tables.predict("tournament", 1 << 16)
        tables.predict("tournament", 1 << 15)
        bimodal = tables.predict("bimodal", 1 << 12)
        gshare = tables.predict("gshare", 1 << 14)
        cap = 1 << GSHARE_HISTORY_BITS
        assert sorted(tables.predictions) == [
            ("bimodal", cap), ("gshare", cap), ("tournament", cap),
        ]
        assert bimodal is tables.predictions[("bimodal", cap)]
        assert gshare is tables.predictions[("gshare", cap)]

    def test_paper_batch_replays_three_tables(self, counters):
        # Five paper machines share the 4 KiB-page trace: two
        # tournaments, two gshares and a bimodal need one bimodal, one
        # gshare and one chooser table.
        machines = [
            m for m in paper_machines() if m.dtlb.page_bytes == 4096
        ]
        assert len(machines) == 5
        profile_trace_batch(
            get_workload("505.mcf_r"), machines, instructions=3_000
        )
        snapshot = counters()
        assert snapshot["trace_engine.fused_batches"] == 1
        assert snapshot["trace_engine.branch_tables"] == 3


class TestGroupBySet:
    """The narrow-key partition against numpy's int64 stable sort."""

    @pytest.mark.parametrize("bound", [1 << 16, 1 << 17])
    def test_matches_int64_stable_argsort(self, bound):
        rng = np.random.default_rng(bound)
        sets = rng.integers(0, bound, 20_000, dtype=np.int64)
        sets[:4] = [0, bound - 1, bound - 1, 0]
        order, keys, bounds = _group_by_set(sets, bound)
        want = np.argsort(sets, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(keys, sets[want])
        starts = np.flatnonzero(np.diff(sets[want], prepend=-1))
        assert bounds == starts.tolist() + [sets.size]


class TestEngineParity:
    """profile_trace vs. the scalar reference, report for report."""

    @pytest.mark.parametrize("machine", PAPER_MACHINE_NAMES)
    @pytest.mark.parametrize("warmup", [0.0, 0.25])
    def test_metrics_identical_across_machines(self, machine, warmup):
        spec = get_workload("505.mcf_r")
        config = get_machine(machine)
        got = profile_trace(
            spec, config, instructions=3_000, warmup_fraction=warmup
        )
        want = reference_report(
            spec, config, instructions=3_000, warmup_fraction=warmup
        )
        assert_reports_identical(got, want, f"{machine} warmup={warmup}")

    def test_sweep_digest_identical(self, monkeypatch):
        import repro.perf.executor as executor

        workloads = ["505.mcf_r", "525.x264_r"]
        machines = PAPER_MACHINE_NAMES[:2]

        def digest():
            return build_feature_matrix(
                workloads=workloads,
                machines=machines,
                profiler=Profiler(engine="trace", trace_instructions=2_000),
            ).digest()

        fused = digest()
        # The same sweep with every batch computed by the scalar oracle.
        monkeypatch.setattr(
            executor,
            "compute_reports",
            lambda spec, configs, engine_config, table: [
                reference_report(
                    spec, config,
                    instructions=engine_config.trace_instructions,
                )
                for config in configs
            ],
        )
        assert digest() == fused


class TestKernelKnob:
    """The engine has one kernel configuration and validates its window."""

    def test_env_default(self, monkeypatch):
        # A stale environment from before the kernel knob was removed
        # must not change what the benchmark harness records.
        from repro.uarch.kernels import resolve_trace_kernel

        monkeypatch.setenv("REPRO_TRACE_KERNEL", "scalar")
        assert resolve_trace_kernel(None) == "vector"

    def test_zero_instructions_rejected(self):
        spec = get_workload("505.mcf_r")
        config = get_machine(PAPER_MACHINE_NAMES[0])
        with pytest.raises(ConfigurationError):
            profile_trace(spec, config, instructions=0)
        with pytest.raises(ConfigurationError):
            profile_trace(spec, config, instructions=-5)
        with pytest.raises(ConfigurationError):
            profile_trace(spec, config, instructions=1_000, warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            Profiler(engine="trace", trace_instructions=0)
