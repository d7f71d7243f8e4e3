"""Fused multi-machine replay: the oracle, eviction, crashes, stale env.

The fused engine (:mod:`repro.uarch.fused`) is the trace engine's only
replay path and promises **bit-identical** reports to the scalar
per-access simulators.  The property suite here holds it to the
reference oracle of :mod:`tests.parity` over randomized machine
batches (FIFO/RANDOM policies included), workloads, warm-up fractions
and windows, plus all seven paper machines.  The trace cache has one
tier: a trace evicted from it is resynthesized, whatever the variables
of the deleted spill tier say.  The executor tests pin the batch crash
contract: a batch that dies names *every* pair it carried.
"""

from __future__ import annotations

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

from repro.errors import ExecutionError
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.perf.trace_cache import TraceCache
from repro.perf.trace_engine import profile_trace, profile_trace_batch
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine, paper_machines
from repro.workloads.spec import get_workload

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
    """The spill tier is gone: eviction means resynthesis."""

    def test_spill_disabled_by_default_eviction_means_resynthesis(
        self, monkeypatch, tmp_path
    ):
        # The two variables that once enabled and sized the tier.
        monkeypatch.setenv("REPRO_TRACE_SPILL_DIR", str(tmp_path / "spill"))
        monkeypatch.setenv("REPRO_TRACE_SPILL_BYTES", "1000000000")
        cache = TraceCache(capacity_bytes=100_000)  # one ~82 KB trace

        def synthesize(seed):
            return cache.get_or_synthesize(
                MCF, 20_000, seed=seed, line_bytes=64, page_bytes=4096
            )

        first = synthesize(1)
        synthesize(2)  # evicts seed=1
        again = synthesize(1)
        info = cache.stats()
        assert info.evictions == 2
        assert info.misses == 3  # the evicted trace was resynthesized
        assert again is not first
        assert traces_equal(again, first)
        assert not (tmp_path / "spill").exists()


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

        def flaky(spec, configs, engine_config):
            if spec.name == fail_on:
                raise RuntimeError("simulated fused-batch crash")
            return real(spec, configs, engine_config)

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


class TestSweepBatching:
    """A jobs=1 trace sweep replays each workload's geometry group once."""

    WORKLOADS = ("505.mcf_r", "541.leela_r", "557.xz_r")

    def test_serial_sweep_makes_one_fused_call_per_trace(self, monkeypatch):
        from repro import obs
        from repro.perf import trace_engine
        from repro.perf.trace_cache import machine_geometry

        batch_sizes = []
        real = trace_engine.replay_fused

        def spy(machines, *args):
            batch_sizes.append(len(machines))
            return real(machines, *args)

        monkeypatch.setattr(trace_engine, "replay_fused", spy)
        machines = paper_machines()
        geometries = {machine_geometry(machine) for machine in machines}
        obs.reset()
        obs.metrics.reset()
        obs.enable()
        try:
            build_feature_matrix(
                self.WORKLOADS,
                machines,
                profiler=Profiler(engine="trace", trace_instructions=2_000),
                jobs=1,
            )
        finally:
            obs.disable()
        counters = obs.snapshot()["counters"]
        obs.reset()
        obs.metrics.reset()
        assert len(batch_sizes) == len(self.WORKLOADS) * len(geometries)
        assert sum(batch_sizes) == len(self.WORKLOADS) * len(machines)
        assert counters["trace_engine.fused_batches"] == len(batch_sizes)
        assert counters["trace_engine.profiles"] == sum(batch_sizes)
