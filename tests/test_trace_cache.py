"""Trace identity (geometry-keyed seeds) and the owner's trace table."""

from __future__ import annotations

from dataclasses import replace

import hashlib

import pytest

from tests.parity import traces_equal as _traces_equal

from repro.perf.trace_cache import (
    get_or_synthesize,
    machine_geometry,
    resolve_seed_scope,
    trace_key,
    trace_seed,
)
from repro.perf.trace_engine import profile_trace
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine, paper_machines
from repro.workloads.spec import get_workload
from repro.workloads.synthesis import synthesize_trace

SKYLAKE = get_machine("skylake-i7-6700")
SPARC = get_machine("sparc-t4")
MCF = get_workload("505.mcf_r")
LEELA = get_workload("541.leela_r")


class TestSeedScopeKnob:
    def test_none_resolves_to_geometry_by_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SEED_SCOPE", "machine")
        assert resolve_seed_scope(None) == "geometry"


class TestTraceSeed:
    def test_geometry_seed_formula_is_pinned(self):
        # Every trace-engine digest rests on this formula: changing it
        # changes every synthesized trace.
        text = f"2017:{MCF.name}:200000:64:4096"
        expected = int.from_bytes(
            hashlib.sha256(text.encode()).digest()[:8], "little"
        )
        assert machine_geometry(SKYLAKE) == (64, 4096)
        assert trace_seed(2017, MCF, SKYLAKE, 200_000) == expected

    def test_geometry_scope_ignores_the_machine_name(self):
        renamed = replace(SKYLAKE, name="skylake-copy")
        assert trace_seed(2017, MCF, SKYLAKE, 200_000) == (
            trace_seed(2017, MCF, renamed, 200_000)
        )

    def test_geometry_scope_keys_on_geometry_and_window(self):
        base = trace_seed(2017, MCF, SKYLAKE, 200_000)
        assert trace_seed(2017, MCF, SPARC, 200_000) != base
        assert trace_seed(2017, MCF, SKYLAKE, 100_000) != base
        assert trace_seed(2018, MCF, SKYLAKE, 200_000) != base
        assert trace_seed(2017, LEELA, SKYLAKE, 200_000) != base

    def test_equal_geometry_machines_share_a_trace(self):
        # Machines with equal (line_bytes, page_bytes) synthesize
        # np.array_equal traces.
        by_geometry = {}
        for machine in paper_machines():
            by_geometry.setdefault(machine_geometry(machine), []).append(
                machine
            )
        assert len(by_geometry) == 2  # the 7 paper machines, 2 geometries
        for geometry, machines in by_geometry.items():
            traces = [
                synthesize_trace(
                    MCF,
                    20_000,
                    seed=trace_seed(2017, MCF, machine, 20_000),
                    line_bytes=geometry[0],
                    page_bytes=geometry[1],
                )
                for machine in machines
            ]
            for other in traces[1:]:
                assert _traces_equal(traces[0], other)


class TestTraceCache:
    """An owner's trace table: one synthesis per identity, read-only."""

    KWARGS = dict(seed=1, line_bytes=64, page_bytes=4096)

    def test_hit_returns_the_same_frozen_trace(self, counters):
        table = {}
        first = get_or_synthesize(table, MCF, 10_000, **self.KWARGS)
        second = get_or_synthesize(table, MCF, 10_000, **self.KWARGS)
        assert first is second
        assert not first.trace.data_addresses.flags.writeable
        assert list(table) == [trace_key(MCF, 10_000, 1, 64, 4096)]
        snapshot = counters()
        assert (snapshot["trace_cache.hit"], snapshot["trace_cache.miss"]) == (
            1, 1,
        )

    def test_distinct_identities_do_not_collide(self, counters):
        table = {}
        a = get_or_synthesize(table, MCF, 10_000, **self.KWARGS).trace
        b = get_or_synthesize(table, LEELA, 10_000, **self.KWARGS).trace
        c = get_or_synthesize(
            table, MCF, 10_000, seed=2, line_bytes=64, page_bytes=4096
        ).trace
        assert counters()["trace_cache.miss"] == len(table) == 3
        assert not _traces_equal(a, b)
        assert not _traces_equal(a, c)

    def test_spec_content_not_just_name_keys_the_trace(self):
        # A renamed-identical spec shares; a same-named different spec
        # must not.
        perturbed = replace(MCF, data_page_factor=MCF.data_page_factor * 2)
        assert perturbed.name == MCF.name
        assert trace_key(MCF, 10_000, 1, 64, 4096) != trace_key(
            perturbed, 10_000, 1, 64, 4096
        )
        table = {}
        original = get_or_synthesize(table, MCF, 10_000, **self.KWARGS)
        assert get_or_synthesize(
            table, perturbed, 10_000, **self.KWARGS
        ) is not original
        assert len(table) == 2

    def test_without_a_table_traces_live_for_the_call(self, counters):
        for _ in range(2):
            profile_trace(MCF, SKYLAKE, instructions=5_000)
        snapshot = counters()
        assert snapshot["trace_cache.miss"] == 2
        assert "trace_cache.hit" not in snapshot

    def test_clear_resets_entries_and_stats(self):
        from repro.perf.profiler import Profiler

        profiler = Profiler(engine="trace", trace_instructions=5_000)
        profiler.profile(MCF, SKYLAKE)
        assert len(profiler.engine_table) == 1
        profiler.clear_cache()
        assert profiler.engine_table == {}
        assert not any(profiler.cache_info())


class TestSweepSynthesisSharing:
    def test_seven_machine_sweep_synthesizes_once_per_geometry(
        self, counters
    ):
        # The acceptance property, counter-verified: one synthesis per
        # distinct (workload, geometry) — 2 geometries across the 7
        # paper machines.
        table = {}
        geometries = {machine_geometry(m) for m in paper_machines()}
        assert len(geometries) == 2
        for workload in (MCF, LEELA):
            for name in PAPER_MACHINE_NAMES:
                profile_trace(
                    workload,
                    get_machine(name),
                    instructions=10_000,
                    table=table,
                )
        snapshot = counters()
        assert snapshot["trace_cache.miss"] == len(table) == 2 * len(
            geometries
        )  # 2 workloads x 2 geometries
        assert snapshot["trace_cache.hit"] == 2 * (
            len(PAPER_MACHINE_NAMES) - len(geometries)
        )

    def test_per_pair_profiles_share_the_profilers_traces(self, counters):
        from repro.perf.profiler import Profiler

        profiler = Profiler(engine="trace", trace_instructions=10_000)
        for machine in paper_machines():
            profiler.profile(MCF, machine)
        snapshot = counters()
        assert snapshot["trace_cache.miss"] == len(profiler.engine_table) == 2
        assert snapshot["trace_cache.hit"] == len(PAPER_MACHINE_NAMES) - 2


class TestPairedReplay:
    def test_null_variant_speedup_is_exactly_one_under_geometry_scope(self):
        # Common random numbers: a variant that changes nothing but the
        # name replays the identical geometry-keyed trace, so its
        # speedup is exactly 1.0 for every base seed — the design-space
        # comparison carries no synthesis noise.
        from repro.core.designspace import (
            DesignVariant,
            evaluate_design_space,
        )
        from repro.perf.profiler import Profiler

        null_variant = DesignVariant(
            "null", replace(SKYLAKE, name=f"{SKYLAKE.name}+null")
        )
        for seed in (2017, 7):
            profiler = Profiler(
                engine="trace", trace_instructions=10_000, seed=seed
            )
            evaluation = evaluate_design_space(
                ["505.mcf_r", "541.leela_r"],
                [DesignVariant("baseline", SKYLAKE), null_variant],
                profiler=profiler,
            )
            assert evaluation.speedups["null"] == 1.0  # exact, not approx

    def test_latency_only_variant_replays_the_same_trace(self):
        # A latency-only variant (same geometry) shares the baseline's
        # trace: its speedup reflects only the structural change, and
        # is identical across base seeds.
        from repro.core.designspace import (
            DesignVariant,
            evaluate_design_space,
        )
        from repro.perf.profiler import Profiler

        faster = replace(
            SKYLAKE,
            name=f"{SKYLAKE.name}+fast-mem",
            latencies=replace(SKYLAKE.latencies, memory=150.0),
        )
        speedups = []
        for seed in (2017, 7):
            profiler = Profiler(
                engine="trace", trace_instructions=10_000, seed=seed
            )
            evaluation = evaluate_design_space(
                ["505.mcf_r"],
                [
                    DesignVariant("baseline", SKYLAKE),
                    DesignVariant("fast-mem", faster),
                ],
                profiler=profiler,
            )
            speedups.append(evaluation.speedups["fast-mem"])
        assert speedups[0] > 1.0
        # Paired replay makes the *comparison* seed-invariant even
        # though each seed synthesizes a different stream.
        assert speedups[0] == pytest.approx(speedups[1], rel=0.02)


class TestProfilerPairIdentity:
    def test_same_name_different_config_never_collides(self):
        # Satellite 2: the old (workload name, machine name) key let a
        # same-named different config collide; the content digest must
        # keep them apart.
        from repro.perf.profiler import Profiler

        bigger_l2 = replace(
            SKYLAKE, l2=replace(SKYLAKE.l2, size_bytes=SKYLAKE.l2.size_bytes * 2)
        )
        assert bigger_l2.name == SKYLAKE.name
        profiler = Profiler()
        first = profiler.profile(MCF, SKYLAKE)
        second = profiler.profile(MCF, bigger_l2)
        assert first is not second
        assert profiler.cache_info().misses == 2

    def test_identical_pair_still_hits(self):
        from repro.perf.profiler import Profiler

        profiler = Profiler()
        first = profiler.profile(MCF, SKYLAKE)
        second = profiler.profile(MCF, get_machine("skylake-i7-6700"))
        assert first is second


class TestWorkloadChunks:
    def test_groups_pairs_by_workload(self):
        from repro.perf.profiler import EngineConfig, engine_batches

        # Two machines of one trace geometry: a chunk per workload.
        xeon = get_machine("xeon-e5405")
        assert machine_geometry(xeon) == machine_geometry(SKYLAKE)
        pairs = [
            (spec, machine)
            for machine in (SKYLAKE, xeon)
            for spec in (MCF, LEELA)  # machine-major: workloads interleave
        ]
        chunks = engine_batches(pairs, EngineConfig(engine="trace"), jobs=1)
        # Flattened dispatch order regroups by workload...
        flat = [index for chunk in chunks for index in chunk]
        names = [pairs[i][0].name for i in flat]
        assert names == sorted(names, key=names.index)
        assert names == ["505.mcf_r", "505.mcf_r", "541.leela_r",
                         "541.leela_r"]
        # ...and covers every index exactly once.
        assert sorted(flat) == list(range(len(pairs)))

    def test_chunking_is_deterministic(self):
        from repro.perf.profiler import EngineConfig, engine_batches

        pairs = [
            (spec, machine)
            for machine in paper_machines()
            for spec in (MCF, LEELA)
        ]
        engine = EngineConfig(engine="trace")
        assert engine_batches(pairs, engine, jobs=3) == engine_batches(
            pairs, engine, jobs=3
        )

    def test_grouped_dispatch_preserves_sweep_results(self):
        # The regrouping is dispatch-only: a parallel machine-major
        # sweep returns exactly the serial results, in input order.
        from repro.perf.executor import ProfilingExecutor
        from repro.perf.profiler import Profiler

        serial = Profiler(engine="trace", trace_instructions=5_000)
        parallel = Profiler(engine="trace", trace_instructions=5_000)
        pairs = [
            (workload, machine)
            for machine in ("skylake-i7-6700", "sparc-t4")
            for workload in ("505.mcf_r", "541.leela_r")
        ]
        expected = ProfilingExecutor(serial, jobs=1).run(pairs)
        actual = ProfilingExecutor(parallel, jobs=3).run(pairs)
        assert [r.metrics for r in actual] == [r.metrics for r in expected]
        assert [(r.workload, r.machine) for r in actual] == [
            (r.workload, r.machine) for r in expected
        ]
