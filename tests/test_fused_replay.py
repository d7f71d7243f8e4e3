"""Fused multi-machine replay: the oracle, resynthesis, crashes, stale env.

The fused engine (:mod:`repro.uarch.fused`) is the trace engine's only
replay path and promises **bit-identical** reports to the scalar
per-access simulators.  The property suite here holds it to the
reference oracle of :mod:`tests.parity` over randomized machine
batches (FIFO/RANDOM policies included), workloads, warm-up fractions
and windows, plus all seven paper machines, and holds a batch split
across calls that share one trace's replay memo to the batch replayed
whole.  Traces live only in their
owner's table: a trace that left it is resynthesized, whatever the
variables of the deleted spill tier and trace-cache budget say.  The
executor tests pin the batch crash contract: a batch that dies names
*every* pair it carried.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from tests.parity import (
    PREDICTOR_KINDS,
    assert_reports_identical,
    reference_counts,
    reference_report,
    rng_for,
    sample_cache_config,
    sample_machine,
    sample_machine_batch,
    sample_tlb_config,
    sample_warmup,
    sample_window,
    sample_workload,
    traces_equal,
    with_sampled_policies,
)

from repro.errors import ExecutionError
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.perf.trace_cache import machine_geometry, trace_seed
from repro.perf.trace_engine import profile_trace, profile_trace_batch
from repro.uarch.cache import ReplacementPolicy
from repro.uarch.fused import TraceReplays, replay_fused
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

    def test_stale_trace_cache_budget_leaves_a_fresh_sweep_unchanged(self):
        # The variable that once sized the trace cache, malformed, in a
        # fresh interpreter: nothing reads it any more.
        script = (
            "from repro.perf.dataset import build_feature_matrix\n"
            "from repro.perf.profiler import Profiler\n"
            "from repro.uarch.machine import PAPER_MACHINE_NAMES\n"
            "print(build_feature_matrix(\n"
            "    ['505.mcf_r', '541.leela_r'], PAPER_MACHINE_NAMES,\n"
            "    profiler=Profiler(engine='trace', trace_instructions=2_000),\n"
            ").digest())\n"
        )
        env = dict(os.environ, REPRO_TRACE_CACHE_BYTES="not-a-number")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src")]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        clean = build_feature_matrix(
            ["505.mcf_r", "541.leela_r"],
            PAPER_MACHINE_NAMES,
            profiler=Profiler(engine="trace", trace_instructions=2_000),
        ).digest()
        assert done.stdout.strip() == clean


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


class TestReplayMemo:
    """A batch split across calls sharing one memo counts as one call.

    Randomized-case budget: 14 trials of 3–6 machines, each batch
    mixing the Table IV bases of one trace geometry (so unified, split
    and absent L2 TLBs meet on one trace), split at random points into
    2–4 :func:`replay_fused` calls on one :class:`TraceReplays`, then
    replayed once more on it at another warm-up fraction.  Half the
    machines get tiny caches and TLBs, so outer levels see capacity
    misses on these short windows, and half share the previous
    machine's outer levels behind other first levels, so a memo key
    that lost the chain in front would hand one its neighbour's misses.
    """

    @staticmethod
    def _tiny(rnd, machine, previous):
        line_bytes, page_bytes = machine_geometry(machine)
        if rnd.random() < 0.5:
            machine = replace(
                machine,
                l1d=sample_cache_config(rnd, line_bytes=line_bytes),
                l1i=sample_cache_config(rnd, line_bytes=line_bytes),
                l2=sample_cache_config(rnd, line_bytes=line_bytes),
                l3=(
                    None if machine.l3 is None
                    else sample_cache_config(rnd, line_bytes=line_bytes)
                ),
                dtlb=sample_tlb_config(rnd, page_bytes),
                itlb=sample_tlb_config(rnd, page_bytes),
                l2tlb=(
                    None if machine.l2tlb is None
                    else sample_tlb_config(rnd, page_bytes)
                ),
            )
        if previous is not None and rnd.random() < 0.5:
            machine = replace(
                machine,
                l2=previous.l2,
                l3=previous.l3,
                l2tlb=previous.l2tlb,
                unified_l2tlb=previous.unified_l2tlb,
            )
        return machine

    @staticmethod
    def _replay(machines, trace, warmup, replays=None):
        return replay_fused(
            machines,
            trace.data_addresses,
            trace.ifetch_addresses,
            trace.branch_sites,
            trace.branch_taken,
            warmup,
            replays,
        )

    def test_split_batches_match_one_call_and_the_oracle(self):
        policies, tlbs, kinds = set(), set(), set()
        for trial in range(14):
            rnd = rng_for("fused-memo", trial)
            geometry = rnd.choice(
                sorted({machine_geometry(m) for m in paper_machines()})
            )
            bases = [
                m for m in paper_machines()
                if machine_geometry(m) == geometry
            ]
            machines = [
                sample_machine(rnd, rnd.choice(bases))
                for _ in range(rnd.choice([3, 4, 5, 6]))
            ]
            machines = [
                with_sampled_policies(rnd, m) if rnd.random() < 0.5 else m
                for m in machines
            ]
            for index, machine in enumerate(machines):
                machines[index] = self._tiny(
                    rnd, machine, machines[index - 1] if index else None
                )
            spec = sample_workload(rnd)
            window = sample_window(rnd)
            trace = synthesize_trace(
                spec,
                window,
                seed=trace_seed(2017, spec, machines[0], window),
                line_bytes=geometry[0],
                page_bytes=geometry[1],
            )
            warmup = sample_warmup(rnd)
            whole = self._replay(machines, trace, warmup)
            for machine, counts in zip(machines, whole):
                assert counts == reference_counts(machine, trace, warmup), (
                    f"trial={trial} machine={machine.name}"
                )
            cuts = sorted(
                rnd.sample(
                    range(1, len(machines)),
                    rnd.randint(1, min(3, len(machines) - 1)),
                )
            )
            replays = TraceReplays()
            split = []
            for lo, hi in zip([0] + cuts, cuts + [len(machines)]):
                split.extend(
                    self._replay(machines[lo:hi], trace, warmup, replays)
                )
            assert split == whole, f"trial={trial} cuts={cuts}"
            other = rnd.choice(
                [w for w in (0.0, 0.1, 0.25, 0.5) if w != warmup]
            )
            again = self._replay(machines, trace, other, replays)
            assert again == self._replay(machines, trace, other)
            for machine, counts in zip(machines, again):
                assert counts == reference_counts(machine, trace, other), (
                    f"trial={trial} warmup={other} machine={machine.name}"
                )
            for machine in machines:
                policies.update(
                    level.policy
                    for level in (machine.l1d, machine.l1i, machine.l2)
                )
                tlbs.add(
                    "absent" if machine.l2tlb is None
                    else "unified" if machine.unified_l2tlb else "split"
                )
                kinds.add(machine.predictor.kind)
        assert policies == set(ReplacementPolicy)
        assert tlbs == {"absent", "unified", "split"}
        assert kinds == set(PREDICTOR_KINDS)

    def test_a_second_call_replays_only_what_is_new(self, counters):
        machines = paper_machines()
        geometry = machine_geometry(machines[0])
        same = [m for m in machines if machine_geometry(m) == geometry]
        trace = synthesize_trace(
            MCF, 3_000, seed=1, line_bytes=geometry[0], page_bytes=geometry[1]
        )
        replays = TraceReplays()
        self._replay(same, trace, 0.25, replays)
        first = counters()
        held = len(replays)
        assert first["trace_engine.replays"] > 0
        assert "trace_engine.replay_hits" not in first
        self._replay(same, trace, 0.5, replays)
        second = counters()
        # Nothing new: every structure is served from the memo, and no
        # predictor table is scanned again.
        assert second["trace_engine.replays"] == first["trace_engine.replays"]
        assert second["trace_engine.replay_hits"] == (
            first["trace_engine.replays"]
        )
        assert second["trace_engine.branch_tables"] == (
            first["trace_engine.branch_tables"]
        )
        assert len(replays) == held
        replays.clear()
        assert len(replays) == 0


class TestSpillTier:
    """The spill tier is gone: a trace that left its table is resynthesized."""

    def test_spill_disabled_by_default_eviction_means_resynthesis(
        self, monkeypatch, tmp_path, counters
    ):
        # The two variables that once enabled and sized the tier.
        monkeypatch.setenv("REPRO_TRACE_SPILL_DIR", str(tmp_path / "spill"))
        monkeypatch.setenv("REPRO_TRACE_SPILL_BYTES", "1000000000")
        profiler = Profiler(engine="trace", trace_instructions=20_000)
        profiler.profile(MCF, SKYLAKE)
        (first,) = [entry.trace for entry in profiler.engine_table.values()]
        # The one way a trace leaves its owner's table.
        profiler.clear_cache()
        profiler.profile(MCF, SKYLAKE)
        (again,) = [entry.trace for entry in profiler.engine_table.values()]
        assert counters()["trace_cache.miss"] == 2  # resynthesized
        assert again is not first
        assert traces_equal(again, first)
        assert not (tmp_path / "spill").exists()


class TestFusedExecutorCrash:
    """Satellite 4: a dying fused batch names every pair it carried."""

    WORKLOADS = ("505.mcf_r", "541.leela_r")
    # One trace geometry, so each workload's machines are one batch.
    MACHINES = ("skylake-i7-6700", "xeon-e5405")

    def _pairs(self):
        return [
            (get_workload(w), get_machine(m))
            for w in self.WORKLOADS
            for m in self.MACHINES
        ]

    def _crash_batches_for(self, monkeypatch, fail_on: str):
        import repro.perf.executor as mod

        real = mod.compute_reports

        def flaky(spec, configs, engine_config, table):
            if spec.name == fail_on:
                raise RuntimeError("simulated fused-batch crash")
            return real(spec, configs, engine_config, table)

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
        # A chunk is one engine batch: a workload's machines of one
        # trace geometry.
        executor = ProfilingExecutor(self._profiler(), jobs=2)
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(self._pairs())
        message = str(excinfo.value)
        for machine in self.MACHINES:
            assert f"505.mcf_r@{machine}" in message
            assert f"541.leela_r@{machine}" not in message

    def test_fused_sweep_matches_independent_sweep_through_executor(self):
        from repro.perf.executor import ProfilingExecutor

        executor = ProfilingExecutor(self._profiler(), jobs=2)
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

    def test_a_serial_sweep_releases_every_replay(self):
        # Two sweeps of the same workloads on other machines (a
        # campaign's shards): the replays stay on the profiler's traces
        # until each trace's last chunk, then go; the traces stay.
        from repro.perf.executor import ProfilingExecutor

        machines = paper_machines()
        sweeps = [
            [(w, m) for w in self.WORKLOADS for m in machines[:4]],
            [(w, m) for w in self.WORKLOADS for m in machines[4:]],
        ]
        profiler = Profiler(engine="trace", trace_instructions=2_000)
        table = profiler.engine_table
        held = []
        ProfilingExecutor(profiler, jobs=1).run_sweeps(
            sweeps,
            lambda _index, _reports: held.append(
                sum(len(entry.replays) for entry in table.values())
            ),
        )
        assert held[0] > 0
        assert held[1] == 0
        assert len(table) == len(self.WORKLOADS) * len(
            {machine_geometry(machine) for machine in machines}
        )
        assert all(len(entry.replays) == 0 for entry in table.values())
