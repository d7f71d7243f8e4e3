"""Fused multi-machine replay: the oracle, spill tier, crashes, stale env.

The fused engine (:mod:`repro.uarch.fused`) is the trace engine's only
replay path and promises **bit-identical** reports to the scalar
per-access simulators.  The property suite here holds it to the
reference oracle of :mod:`tests.parity` over randomized machine
batches (FIFO/RANDOM policies included), workloads, warm-up fractions
and windows, plus all seven paper machines.  The spill-tier tests cover
the trace cache's second tier: traces evicted from the resident LRU
survive on disk and come back memory-mapped and bit-identical, with
corruption degrading to resynthesis.  The executor tests pin the batch
crash contract: a batch that dies names *every* pair it carried.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.parity import (
    assert_reports_identical,
    reference_report,
    rng_for,
    sample_machine_batch,
    sample_warmup,
    sample_window,
    sample_workload,
    traces_equal,
    with_sampled_policies,
)

from repro.errors import ConfigurationError, ExecutionError
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.perf.trace_cache import (
    SPILL_BYTES_ENV,
    SPILL_DIR_ENV,
    TraceCache,
    trace_key,
)
from repro.perf.trace_engine import profile_trace, profile_trace_batch
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine, paper_machines
from repro.workloads.spec import get_workload
from repro.workloads.synthesis import synthesize_trace

MCF = get_workload("505.mcf_r")
SKYLAKE = get_machine("skylake-i7-6700")

#: Environment variables that selected a trace kernel, replay strategy
#: or seed scope before the engine had one configuration, set to the
#: values that once changed what the engine ran.
STALE_ENVIRONMENT = {
    "REPRO_TRACE_KERNEL": "scalar",
    "REPRO_REPLAY": "independent",
    "REPRO_TRACE_SEED_SCOPE": "machine",
}


class TestReplayKnob:
    """The engine has one replay strategy; old selectors are inert."""

    def test_env_default(self, monkeypatch):
        from repro.uarch.fused import resolve_replay

        monkeypatch.setenv("REPRO_REPLAY", "independent")
        assert resolve_replay(None) == "fused"

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--trace-kernel", "scalar"),
            ("--replay", "independent"),
            ("--trace-seed-scope", "machine"),
        ],
    )
    def test_removed_cli_flags_are_rejected(self, flag, value):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "505.mcf_r", "--engine", "trace", flag, value]
            )


class TestStaleEnvironment:
    def test_stale_knob_variables_leave_the_sweep_digest_unchanged(
        self, monkeypatch
    ):
        def sweep_digest():
            profiler = Profiler(engine="trace", trace_instructions=2_000)
            return build_feature_matrix(
                ["505.mcf_r", "541.leela_r"],
                PAPER_MACHINE_NAMES,
                profiler=profiler,
            ).digest()

        for name in STALE_ENVIRONMENT:
            monkeypatch.delenv(name, raising=False)
        clean = sweep_digest()
        for name, value in STALE_ENVIRONMENT.items():
            monkeypatch.setenv(name, value)
        assert sweep_digest() == clean


class TestFusedParity:
    """Fused replay vs. the scalar reference oracle, always bit-identical.

    Randomized-case budget (tests/parity.py contract): 20 trials with
    2–5 machines each contribute ~70 report-level parity cases on top
    of the component suites of ``test_kernel_parity.py``.
    """

    def test_randomized_batches_match_independent(self):
        for trial in range(20):
            rnd = rng_for("fused-batch", trial)
            spec = sample_workload(rnd)
            machines = sample_machine_batch(rnd, rnd.choice([2, 3, 4, 5]))
            if rnd.random() < 0.5:
                machines = [with_sampled_policies(rnd, m) for m in machines]
            window = sample_window(rnd)
            warmup = sample_warmup(rnd)
            fused = profile_trace_batch(
                spec, machines, instructions=window, warmup_fraction=warmup
            )
            for machine, got in zip(machines, fused):
                want = reference_report(
                    spec, machine, instructions=window, warmup_fraction=warmup
                )
                assert_reports_identical(
                    got, want,
                    f"trial={trial} warmup={warmup} "
                    f"window={window} machine={machine.name}",
                )

    def test_paper_machine_sweep_is_bit_identical(self):
        machines = paper_machines()
        fused = profile_trace_batch(MCF, machines, instructions=5_000)
        for machine, got in zip(machines, fused):
            want = reference_report(MCF, machine, instructions=5_000)
            assert_reports_identical(got, want, machine.name)

    def test_single_machine_batch_degenerates_to_profile_trace(self):
        (got,) = profile_trace_batch(MCF, [SKYLAKE], instructions=3_000)
        assert_reports_identical(
            got, profile_trace(MCF, SKYLAKE, instructions=3_000)
        )
        assert_reports_identical(
            got, reference_report(MCF, SKYLAKE, instructions=3_000)
        )

    def test_batch_order_is_input_order(self):
        machines = [get_machine(name) for name in PAPER_MACHINE_NAMES]
        reports = profile_trace_batch(MCF, machines, instructions=2_000)
        assert [r.machine for r in reports] == [m.name for m in machines]


class TestSpillTier:
    """The memory-mapped spill tier under eviction, damage and clear()."""

    def _spilling_cache(self, tmp_path, **kwargs):
        kwargs.setdefault("capacity_bytes", 100_000)  # one ~82 KB trace
        return TraceCache(spill_dir=tmp_path / "spill", **kwargs)

    def _synthesize(self, cache, seed):
        return cache.get_or_synthesize(
            MCF, 20_000, seed=seed, line_bytes=64, page_bytes=4096
        )

    def test_evicted_trace_returns_memory_mapped_and_bit_identical(
        self, tmp_path
    ):
        cache = self._spilling_cache(tmp_path)
        first = self._synthesize(cache, seed=1)
        self._synthesize(cache, seed=2)  # evicts seed=1 to the spill tier
        info = cache.stats()
        assert info.evictions == 1
        assert info.spills == 1
        assert info.spilled_entries == 1
        assert info.spilled_bytes > 0
        rehit = self._synthesize(cache, seed=1)
        info = cache.stats()
        assert info.spill_hits == 1
        assert info.misses == 2  # a spill hit is *not* a synthesis
        assert traces_equal(first, rehit)
        assert isinstance(rehit.data_addresses, np.memmap)
        assert not rehit.data_addresses.flags.writeable
        assert rehit.instructions == first.instructions

    def test_spill_hit_counts_toward_hit_rate(self, tmp_path):
        cache = self._spilling_cache(tmp_path)
        self._synthesize(cache, seed=1)
        self._synthesize(cache, seed=2)
        self._synthesize(cache, seed=1)  # spill hit
        info = cache.stats()
        assert info.hit_rate == pytest.approx(1.0 / 3.0)

    def test_corrupted_spill_entry_resynthesizes_not_crashes(self, tmp_path):
        cache = self._spilling_cache(tmp_path)
        self._synthesize(cache, seed=1)
        self._synthesize(cache, seed=2)
        for npy in (tmp_path / "spill").rglob("*.npy"):
            npy.write_bytes(b"not a numpy file")
        before = cache.stats()
        again = self._synthesize(cache, seed=1)
        info = cache.stats()
        assert info.misses == before.misses + 1  # resynthesized
        assert info.spill_hits == before.spill_hits
        # The corrupt entry was dropped; re-inserting seed=1 evicted
        # seed=2, whose (fresh) spill replaces it one-for-one.
        assert info.spills == before.spills + 1
        assert info.spilled_entries == before.spilled_entries
        fresh = synthesize_trace(
            MCF, 20_000, seed=1, line_bytes=64, page_bytes=4096
        )
        assert traces_equal(again, fresh)

    def test_missing_spill_file_resynthesizes(self, tmp_path):
        cache = self._spilling_cache(tmp_path)
        self._synthesize(cache, seed=1)
        self._synthesize(cache, seed=2)
        victim = next((tmp_path / "spill").rglob("branch_taken.npy"))
        victim.unlink()
        again = self._synthesize(cache, seed=1)
        assert cache.stats().misses == 3
        fresh = synthesize_trace(
            MCF, 20_000, seed=1, line_bytes=64, page_bytes=4096
        )
        assert traces_equal(again, fresh)

    def test_two_tier_byte_accounting_is_separate_and_bounded(self, tmp_path):
        cache = self._spilling_cache(tmp_path, capacity_bytes=180_000)
        for seed in range(6):
            self._synthesize(cache, seed=seed)
            info = cache.stats()
            assert info.resident_bytes <= 180_000
        info = cache.stats()
        assert info.evictions == info.spills > 0
        # Spilled bytes account exactly the evicted traces, separately
        # from residency (nothing is double-counted).
        per_trace = info.resident_bytes // info.entries
        assert info.spilled_bytes == info.spills * per_trace
        on_disk = sum(
            f.stat().st_size for f in (tmp_path / "spill").rglob("*.npy")
        )
        assert on_disk >= info.spilled_bytes  # .npy headers add a little

    def test_spill_capacity_evicts_oldest_spill_files(self, tmp_path):
        # Room for two spilled traces (~82 KB each): spilling a third
        # must unlink the oldest entry's files and unaccount its bytes.
        cache = self._spilling_cache(
            tmp_path, spill_capacity_bytes=170_000
        )
        for seed in range(4):  # seeds 0..2 get evicted+spilled in order
            self._synthesize(cache, seed=seed)
        info = cache.stats()
        assert info.spills == 3
        assert info.spilled_entries == 2  # oldest spill evicted
        assert info.spilled_bytes <= 170_000
        dirs = [p for p in (tmp_path / "spill").iterdir() if p.is_dir()]
        assert len(dirs) == 2
        # The survivor entries still round-trip.
        assert cache.get(trace_key(MCF, 20_000, 1, 64, 4096)) is None
        rehit = self._synthesize(cache, seed=2)
        assert cache.stats().spill_hits == 1
        assert traces_equal(
            rehit,
            synthesize_trace(MCF, 20_000, seed=2, line_bytes=64,
                             page_bytes=4096),
        )

    def test_oversized_trace_is_not_spilled(self, tmp_path):
        cache = self._spilling_cache(
            tmp_path, spill_capacity_bytes=10_000
        )
        self._synthesize(cache, seed=1)
        self._synthesize(cache, seed=2)
        info = cache.stats()
        assert info.evictions == 1
        assert info.spills == 0
        assert not (tmp_path / "spill").exists()

    def test_clear_purges_spill_tier_and_zeroes_gauge(self, tmp_path):
        # Satellite 3, mirroring the PR 6 resident_bytes fix: clear()
        # must drop the spill files, the index *and* the registry gauge
        # — otherwise a cleared cache resurrects pre-clear traces and
        # manifests report disk the cache no longer holds.
        from repro import obs

        obs.metrics.reset()
        obs.enable()
        try:
            cache = self._spilling_cache(tmp_path)
            self._synthesize(cache, seed=1)
            self._synthesize(cache, seed=2)
            assert obs.snapshot()["gauges"]["trace_cache.spilled_bytes"] > 0
            cache.clear()
            assert obs.snapshot()["gauges"]["trace_cache.spilled_bytes"] == 0
            assert obs.snapshot()["gauges"]["trace_cache.resident_bytes"] == 0
            info = cache.stats()
            assert info.spilled_entries == 0 and info.spilled_bytes == 0
            assert not any((tmp_path / "spill").iterdir())
            # No resurrection: the next lookup is a synthesis.
            self._synthesize(cache, seed=1)
            assert cache.stats().misses == 1
            assert cache.stats().spill_hits == 0
        finally:
            obs.disable()
            obs.metrics.reset()

    def test_spill_disabled_by_default_eviction_means_resynthesis(
        self, monkeypatch
    ):
        monkeypatch.delenv(SPILL_DIR_ENV, raising=False)
        cache = TraceCache(capacity_bytes=100_000)
        assert cache.spill_dir is None
        self._synthesize(cache, seed=1)
        self._synthesize(cache, seed=2)
        self._synthesize(cache, seed=1)
        info = cache.stats()
        assert info.misses == 3
        assert info.spills == 0 and info.spill_hits == 0

    def test_env_overrides_and_validation(self, monkeypatch, tmp_path):
        monkeypatch.setenv(SPILL_DIR_ENV, str(tmp_path / "envspill"))
        monkeypatch.setenv(SPILL_BYTES_ENV, "54321")
        cache = TraceCache(capacity_bytes=100_000)
        assert cache.spill_dir == tmp_path / "envspill"
        assert cache.spill_capacity_bytes == 54321
        monkeypatch.setenv(SPILL_BYTES_ENV, "lots")
        with pytest.raises(ConfigurationError):
            TraceCache()
        monkeypatch.delenv(SPILL_BYTES_ENV, raising=False)
        with pytest.raises(ConfigurationError):
            TraceCache(spill_capacity_bytes=-1)


class TestSpillAdoption:
    """Cross-process spill adoption and incremental byte accounting."""

    def _spilling_cache(self, tmp_path, **kwargs):
        kwargs.setdefault("capacity_bytes", 100_000)
        return TraceCache(spill_dir=tmp_path / "spill", **kwargs)

    def _synthesize(self, cache, seed):
        return cache.get_or_synthesize(
            MCF, 20_000, seed=seed, line_bytes=64, page_bytes=4096
        )

    def test_byte_total_scans_the_directory_exactly_once(self, tmp_path):
        # The satellite guard: the spill tier's byte total is computed
        # by one construction-time directory scan and then maintained
        # incrementally — many inserts, evictions and a clear() must
        # not rescan (a regression to rescan-per-insert shows up here
        # as a climbing counter).
        cache = self._spilling_cache(tmp_path, spill_capacity_bytes=400_000)
        assert cache.stats().spill_scans == 1
        for seed in range(8):  # spills + spill-capacity evictions
            self._synthesize(cache, seed=seed)
        info = cache.stats()
        assert info.spills > 0
        assert info.spill_scans == 1
        on_disk = sum(
            f.stat().st_size
            for f in (tmp_path / "spill").rglob("*.npy")
        )
        # Incremental accounting agrees with the actual array payload
        # on disk (each .npy carries a small header on top).
        assert 0 < info.spilled_bytes <= on_disk
        cache.clear()
        assert cache.stats().spill_scans == 1

    def test_fresh_cache_adopts_existing_spill_entries(self, tmp_path):
        first = self._spilling_cache(tmp_path)
        original = self._synthesize(first, seed=1)
        self._synthesize(first, seed=2)  # evicts + spills seed=1
        spilled = first.stats().spilled_bytes
        assert spilled > 0
        # A second cache on the same directory — a resumed campaign's
        # fresh process — adopts the entry and its accounting without
        # help, and re-hits it instead of resynthesizing.
        second = self._spilling_cache(tmp_path)
        info = second.stats()
        assert info.spill_scans == 1
        assert info.spilled_entries == 1
        assert info.spilled_bytes == spilled
        rehit = self._synthesize(second, seed=1)
        info = second.stats()
        assert info.spill_hits == 1
        assert info.misses == 0
        assert traces_equal(original, rehit)

    def test_adopted_entries_evict_oldest_first(self, tmp_path):
        first = self._spilling_cache(tmp_path, spill_capacity_bytes=400_000)
        for seed in range(4):  # seeds 0..2 spill, in eviction order
            self._synthesize(first, seed=seed)
        assert first.stats().spilled_entries == 3
        # Adopting under a tighter budget keeps the *newest* entries,
        # dropping the oldest spill files from disk.
        second = self._spilling_cache(
            tmp_path, spill_capacity_bytes=170_000
        )
        info = second.stats()
        assert info.spilled_entries == 2
        dirs = [
            p for p in (tmp_path / "spill").iterdir() if p.is_dir()
        ]
        assert len(dirs) == 2
        assert second.get_or_synthesize(
            MCF, 20_000, seed=0, line_bytes=64, page_bytes=4096
        ) is not None
        assert second.stats().misses == 1  # oldest was dropped

    def test_unreadable_entries_are_unlinked_not_adopted(self, tmp_path):
        first = self._spilling_cache(tmp_path)
        self._synthesize(first, seed=1)
        self._synthesize(first, seed=2)
        spill_root = tmp_path / "spill"
        (entry,) = [p for p in spill_root.iterdir() if p.is_dir()]
        (entry / "key.json").write_text("not json")
        (spill_root / "stray").mkdir()  # no sidecar at all
        second = self._spilling_cache(tmp_path)
        info = second.stats()
        assert info.spill_scans == 1
        assert info.spilled_entries == 0 and info.spilled_bytes == 0
        assert [p for p in spill_root.iterdir() if p.is_dir()] == []


class TestFusedExecutorCrash:
    """Satellite 4: a dying fused batch names every pair it carried."""

    WORKLOADS = ("505.mcf_r", "541.leela_r")
    MACHINES = ("skylake-i7-6700", "sparc-t4")

    def _pairs(self):
        return [
            (get_workload(w), get_machine(m))
            for w in self.WORKLOADS
            for m in self.MACHINES
        ]

    def _crash_batches_for(self, monkeypatch, fail_on: str):
        import repro.perf.executor as mod

        real = mod.compute_reports

        def flaky(spec, configs, engine, **kwargs):
            if spec.name == fail_on:
                raise RuntimeError("simulated fused-batch crash")
            return real(spec, configs, engine, **kwargs)

        monkeypatch.setattr(mod, "compute_reports", flaky)

    def _profiler(self):
        return Profiler(engine="trace", trace_instructions=2_000)

    def test_serial_fused_crash_names_every_pair_in_the_batch(
        self, monkeypatch
    ):
        from repro.perf.executor import ProfilingExecutor

        self._crash_batches_for(monkeypatch, fail_on="541.leela_r")
        executor = ProfilingExecutor(self._profiler(), jobs=1)
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(self._pairs())
        message = str(excinfo.value)
        for machine in self.MACHINES:
            assert f"541.leela_r@{machine}" in message
            assert f"505.mcf_r@{machine}" not in message

    def test_worker_fused_crash_names_every_pair_in_the_batch(
        self, monkeypatch
    ):
        from repro.perf.executor import ProfilingExecutor

        self._crash_batches_for(monkeypatch, fail_on="505.mcf_r")
        # chunk_size=2 keeps each workload's machine pairs in one
        # fused chunk (workload_chunks dispatches workload-major).
        executor = ProfilingExecutor(
            self._profiler(), jobs=2, backend="thread", chunk_size=2
        )
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(self._pairs())
        message = str(excinfo.value)
        for machine in self.MACHINES:
            assert f"505.mcf_r@{machine}" in message
            assert f"541.leela_r@{machine}" not in message

    def test_fused_sweep_matches_independent_sweep_through_executor(self):
        from repro.perf.executor import ProfilingExecutor

        executor = ProfilingExecutor(self._profiler(), jobs=2, backend="thread")
        pairs = self._pairs()
        for (spec, machine), got in zip(pairs, executor.run(pairs)):
            want = reference_report(spec, machine, instructions=2_000)
            assert_reports_identical(got, want, f"{spec.name}@{machine.name}")
