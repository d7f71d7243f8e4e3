"""Trace identity (geometry-keyed seeds) and the shared bounded trace cache."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import hashlib

import pytest

from tests.parity import traces_equal as _traces_equal

from repro.errors import ConfigurationError
from repro.perf.trace_cache import (
    CACHE_BYTES_ENV,
    TraceCache,
    default_trace_cache,
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
    def test_hit_returns_the_same_frozen_trace(self):
        cache = TraceCache(capacity_bytes=64 * 1024 * 1024)
        first = cache.get_or_synthesize(
            MCF, 10_000, seed=1, line_bytes=64, page_bytes=4096
        )
        second = cache.get_or_synthesize(
            MCF, 10_000, seed=1, line_bytes=64, page_bytes=4096
        )
        assert first is second
        assert not first.data_addresses.flags.writeable
        info = cache.stats()
        assert (info.hits, info.misses, info.entries) == (1, 1, 1)
        assert info.resident_bytes > 0
        assert info.hit_rate == 0.5

    def test_distinct_identities_do_not_collide(self):
        cache = TraceCache(capacity_bytes=64 * 1024 * 1024)
        kwargs = dict(seed=1, line_bytes=64, page_bytes=4096)
        a = cache.get_or_synthesize(MCF, 10_000, **kwargs)
        b = cache.get_or_synthesize(LEELA, 10_000, **kwargs)
        c = cache.get_or_synthesize(MCF, 10_000, seed=2, line_bytes=64,
                                    page_bytes=4096)
        assert cache.stats().misses == 3
        assert not _traces_equal(a, b)
        assert not _traces_equal(a, c)

    def test_spec_content_not_just_name_keys_the_trace(self):
        # A renamed-identical spec shares; a same-named different spec
        # must not (the satellite-2 failure mode, on the trace side).
        perturbed = replace(MCF, data_page_factor=MCF.data_page_factor * 2)
        assert perturbed.name == MCF.name
        assert trace_key(MCF, 10_000, 1, 64, 4096) != trace_key(
            perturbed, 10_000, 1, 64, 4096
        )

    def test_eviction_respects_the_byte_bound(self):
        # Property (c): fill far past a small capacity; residency never
        # exceeds the bound and evictions are oldest-first.
        cache = TraceCache(capacity_bytes=200_000)
        for seed in range(8):
            cache.get_or_synthesize(
                MCF, 10_000, seed=seed, line_bytes=64, page_bytes=4096
            )
            assert cache.stats().resident_bytes <= 200_000
        info = cache.stats()
        assert info.misses == 8
        assert info.evictions > 0
        assert info.entries < 8
        # The most recent insertion is resident; the oldest is not.
        assert cache.get(trace_key(MCF, 10_000, 7, 64, 4096)) is not None
        assert cache.get(trace_key(MCF, 10_000, 0, 64, 4096)) is None

    def test_zero_capacity_disables_retention(self):
        cache = TraceCache(capacity_bytes=0)
        cache.get_or_synthesize(MCF, 5_000, seed=1, line_bytes=64,
                                page_bytes=4096)
        cache.get_or_synthesize(MCF, 5_000, seed=1, line_bytes=64,
                                page_bytes=4096)
        info = cache.stats()
        assert info.misses == 2
        assert info.entries == 0
        assert info.resident_bytes == 0

    def test_clear_zeroes_resident_gauge(self):
        # Regression test: clear() used to leave the last resident
        # figure in the trace_cache.resident_bytes gauge, so manifests
        # of later runs reported memory the cache no longer held.
        from repro import obs

        obs.metrics.reset()
        obs.enable()
        try:
            cache = TraceCache(capacity_bytes=10_000_000)
            cache.get_or_synthesize(MCF, 5_000, seed=1, line_bytes=64,
                                    page_bytes=4096)
            assert (
                obs.snapshot()["gauges"]["trace_cache.resident_bytes"] > 0
            )
            cache.clear()
            assert (
                obs.snapshot()["gauges"]["trace_cache.resident_bytes"] == 0
            )
        finally:
            obs.disable()
            obs.metrics.reset()

    def test_capacity_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv(CACHE_BYTES_ENV, "12345")
        assert TraceCache().capacity_bytes == 12345
        monkeypatch.setenv(CACHE_BYTES_ENV, "lots")
        with pytest.raises(ConfigurationError):
            TraceCache()
        with pytest.raises(ConfigurationError):
            TraceCache(capacity_bytes=-1)

    def test_eviction_is_deterministic_under_threads(self):
        # Property (c, threaded): the same key sequence produces the
        # same resident set regardless of thread interleaving, because
        # each thread touches its own key after a deterministic warm
        # sequence and equal keys are bit-identical.
        def run_once():
            cache = TraceCache(capacity_bytes=400_000)
            seeds = list(range(6)) * 2
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(
                    pool.map(
                        lambda s: cache.get_or_synthesize(
                            MCF, 10_000, seed=s, line_bytes=64,
                            page_bytes=4096,
                        ),
                        seeds,
                    )
                )
            # Replay serially: resident traces must be bit-identical to
            # a fresh synthesis of the same identity.
            info = cache.stats()
            assert info.resident_bytes <= 400_000
            resident = {
                s
                for s in range(6)
                if cache.get(trace_key(MCF, 10_000, s, 64, 4096)) is not None
            }
            for s in resident:
                cached = cache.get(trace_key(MCF, 10_000, s, 64, 4096))
                assert _traces_equal(
                    cached,
                    synthesize_trace(
                        MCF, 10_000, seed=s, line_bytes=64, page_bytes=4096
                    ),
                )
            return info.misses >= 6

        assert run_once()

    def test_clear_resets_entries_and_stats(self):
        cache = TraceCache(capacity_bytes=64 * 1024 * 1024)
        cache.get_or_synthesize(MCF, 5_000, seed=1, line_bytes=64,
                                page_bytes=4096)
        cache.clear()
        info = cache.stats()
        assert not any(info)  # every counter and gauge, both tiers

    def test_default_cache_is_a_process_singleton(self):
        assert default_trace_cache() is default_trace_cache()


class TestSweepSynthesisSharing:
    def test_seven_machine_sweep_synthesizes_once_per_geometry(self):
        # The acceptance property, counter-verified: one synthesis per
        # distinct (workload, geometry) — 2 geometries across the 7
        # paper machines.
        cache = TraceCache(capacity_bytes=256 * 1024 * 1024)
        geometries = {machine_geometry(m) for m in paper_machines()}
        assert len(geometries) == 2
        for workload in (MCF, LEELA):
            for name in PAPER_MACHINE_NAMES:
                profile_trace(
                    workload,
                    get_machine(name),
                    instructions=10_000,
                    trace_cache=cache,
                )
        info = cache.stats()
        assert info.misses == 2 * len(geometries)  # 2 workloads x 2 geos
        assert info.hits == 2 * (len(PAPER_MACHINE_NAMES) - len(geometries))


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
        from repro.perf.executor import workload_chunks

        pairs = [
            (spec, machine)
            for machine in (SKYLAKE, SPARC)
            for spec in (MCF, LEELA)  # machine-major: workloads interleave
        ]
        chunks = workload_chunks(pairs, jobs=1, chunk_size=2)
        # Flattened dispatch order regroups by workload...
        flat = [index for chunk in chunks for index in chunk]
        names = [pairs[i][0].name for i in flat]
        assert names == sorted(names, key=names.index)
        assert names == ["505.mcf_r", "505.mcf_r", "541.leela_r",
                         "541.leela_r"]
        # ...and covers every index exactly once.
        assert sorted(flat) == list(range(len(pairs)))

    def test_chunking_is_deterministic(self):
        from repro.perf.executor import workload_chunks

        pairs = [
            (spec, machine)
            for machine in paper_machines()
            for spec in (MCF, LEELA)
        ]
        assert workload_chunks(pairs, jobs=3) == workload_chunks(pairs, jobs=3)

    def test_grouped_dispatch_preserves_sweep_results(self):
        # The regrouping is dispatch-only: a parallel machine-major
        # sweep returns exactly the serial results, in input order.
        from repro.perf.profiler import Profiler

        serial = Profiler(engine="trace", trace_instructions=5_000)
        parallel = Profiler(engine="trace", trace_instructions=5_000)
        workloads = ["505.mcf_r", "541.leela_r"]
        machines = ["skylake-i7-6700", "sparc-t4"]
        expected = serial.profile_many(workloads, machines, jobs=1)
        actual = parallel.profile_many(
            workloads, machines, jobs=3, backend="thread"
        )
        assert [r.metrics for r in actual] == [r.metrics for r in expected]
        assert [(r.workload, r.machine) for r in actual] == [
            (r.workload, r.machine) for r in expected
        ]
