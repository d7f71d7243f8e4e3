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

import numpy as np
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
    sample_policy,
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
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.fused import TraceReplays, _Footprint, replay_fused
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine, paper_machines
from repro.uarch.tlb import TlbConfig
from repro.workloads.spec import get_workload
from repro.workloads.synthesis import SyntheticTrace, synthesize_trace

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
            whole = _replay(machines, trace, warmup)
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
                    _replay(machines[lo:hi], trace, warmup, replays)
                )
            assert split == whole, f"trial={trial} cuts={cuts}"
            other = rnd.choice(
                [w for w in (0.0, 0.1, 0.25, 0.5) if w != warmup]
            )
            again = _replay(machines, trace, other, replays)
            assert again == _replay(machines, trace, other)
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
        _replay(same, trace, 0.25, replays)
        first = counters()
        held = len(replays)
        assert first["trace_engine.replays"] > 0
        assert "trace_engine.replay_hits" not in first
        _replay(same, trace, 0.5, replays)
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


def _set_loads(addresses, line_bytes, num_sets):
    """Distinct lines per set of an access stream."""
    lines = np.unique(addresses >> (line_bytes.bit_length() - 1))
    return np.bincount(lines % num_sets, minlength=num_sets)


def _cache(line_bytes, num_sets, ways, policy=ReplacementPolicy.LRU):
    return CacheConfig(
        line_bytes * num_sets * ways, line_bytes=line_bytes,
        associativity=ways, policy=policy,
    )


class TestFootprintRule:
    """Each branch of the footprint rule against the scalar oracle.

    A set that touches no more distinct lines than it has ways misses
    exactly at its lines' first touches; only overflowing sets take the
    dict replay.  A level behind L1 shares its side's footprint only
    when no level in front has larger lines, and a second-level TLB
    always takes its own stream's.
    """

    TRACE = synthesize_trace(MCF, 4_000, seed=3)
    SETS = 16

    def _assert_oracle(self, machines, trace, warmups=(0.0, 0.25)):
        for warmup in warmups:
            got = _replay(machines, trace, warmup)
            for machine, counts in zip(machines, got):
                assert counts == reference_counts(machine, trace, warmup), (
                    f"warmup={warmup} machine={machine}"
                )

    def _ways(self, addresses, line_bytes=64):
        """Associativities at which all sets of ``self.SETS`` fit
        ``addresses``' footprint, all but the busiest (one line short),
        some, and none."""
        loads = _set_loads(addresses, line_bytes, self.SETS)
        fits_all, one_short, fits_some, fits_none = (
            int(loads.max()), int(loads.max()) - 1,
            int(loads.min()), int(loads.min()) - 1,
        )
        assert fits_none >= 1 and loads.min() < loads.max()
        assert (loads <= fits_all).all()
        assert (loads > one_short).sum() >= 1
        assert (loads <= fits_some).any() and (loads > fits_some).any()
        assert (loads > fits_none).all()
        return fits_all, one_short, fits_some, fits_none

    def test_sets_that_all_fit_some_fit_or_none_fit(self, counters):
        trace = self.TRACE
        data = self._ways(trace.data_addresses)
        inst = self._ways(trace.ifetch_addresses)
        machines = [
            replace(
                SKYLAKE,
                l1d=_cache(64, self.SETS, d),
                l1i=_cache(64, self.SETS, i),
                # Behind L1 the side's footprint is the level's own:
                # the same ways classify its sets the same way.
                l2=_cache(64, self.SETS, d),
                l3=_cache(64, self.SETS, d),
            )
            for d, i in zip(data, inst)
        ]
        self._assert_oracle(machines, trace)
        seen = counters()
        assert seen["trace_engine.footprint_levels"] > 0
        assert seen["trace_engine.lru_accesses"] > 0

    def test_a_set_one_line_over_its_ways_misses_on_every_cycle(self):
        # Four rounds over 4 sets: set 0 cycles through three lines,
        # set 1 through two.  Two ways hold set 1's footprint (two
        # misses) but not set 0's, which LRU then misses every time.
        lines = [0, 4, 8, 1, 5] * 4
        data = np.asarray(lines, dtype=np.int64) * 64
        trace = SyntheticTrace(
            instructions=self.TRACE.instructions,
            data_addresses=data,
            data_is_store=np.zeros(data.size, dtype=bool),
            ifetch_addresses=data + (1 << 40),
            branch_sites=self.TRACE.branch_sites,
            branch_taken=self.TRACE.branch_taken,
        )
        machines = [
            replace(
                SKYLAKE,
                l1d=_cache(64, 4, ways),
                l1i=_cache(64, 4, ways),
                dtlb=TlbConfig(4, 4),
            )
            for ways in (2, 3)
        ]
        two, three = _replay(machines, trace, 0.0)
        assert two.data_misses[0] == two.inst_misses[0] == 3 * 4 + 2
        assert three.data_misses[0] == three.inst_misses[0] == 3 + 2
        self._assert_oracle(machines, trace)

    def test_a_batch_that_fits_runs_no_dict_replay(self, counters):
        # Every cache and TLB holds the window's whole footprint.
        roomy = replace(
            SKYLAKE,
            l1d=_cache(64, 1, 4_096),
            l1i=_cache(64, 1, 4_096),
            l2=_cache(64, 64, 512),
            l3=None,
            dtlb=TlbConfig(1_024, 1_024),
            itlb=TlbConfig(64, 4),
            l2tlb=TlbConfig(2_048, 8),
        )
        self._assert_oracle([roomy], self.TRACE, warmups=(0.25,))
        seen = counters()
        assert "trace_engine.lru_accesses" not in seen
        assert seen["trace_engine.footprint_levels"] == (
            seen["trace_engine.replays"]
        )

    def test_one_set_tlbs_that_fit_and_that_overflow(self):
        trace = self.TRACE
        pages = {
            side: int(np.unique(addresses >> 12).size)
            for side, addresses in (
                ("data", trace.data_addresses),
                ("inst", trace.ifetch_addresses),
            )
        }
        assert min(pages.values()) >= 2
        machines = []
        for data_entries, inst_entries in (
            (pages["data"], pages["inst"]),  # every page fits
            (pages["data"] - 1, pages["inst"] - 1),  # one too many
            (pages["data"] // 3, 1),
        ):
            for l2tlb, unified in (
                (None, False),
                (TlbConfig(2, 2), True),  # one set that overflows
                (TlbConfig(4_096, 4_096), True),  # one set that fits
                (TlbConfig(2, 2), False),
            ):
                machines.append(replace(
                    SKYLAKE,
                    dtlb=TlbConfig(data_entries, data_entries),
                    itlb=TlbConfig(inst_entries, inst_entries),
                    l2tlb=l2tlb,
                    unified_l2tlb=unified,
                ))
        self._assert_oracle(machines, trace)

    def test_unified_and_split_l2_tlbs_on_mixed_page_sizes(self):
        # A second-level TLB replays its own stream: the L1 TLB's
        # misses, whichever page size either one has.
        trace = self.TRACE
        machines = [
            replace(
                SKYLAKE,
                dtlb=TlbConfig(8, 2, page_bytes=l1_page),
                itlb=TlbConfig(4, 4, page_bytes=l1_page),
                l2tlb=TlbConfig(entries, ways, page_bytes=l2_page),
                unified_l2tlb=unified,
            )
            for l1_page, l2_page in ((4096, 8192), (8192, 4096), (4096, 4096))
            for entries, ways in ((8, 2), (16, 16), (1_024, 4))
            for unified in (True, False)
        ]
        self._assert_oracle(machines, trace)

    def test_empty_streams(self):
        trace = self.TRACE
        empty = np.zeros(0, dtype=np.int64)
        machines = [
            SKYLAKE,
            replace(SKYLAKE, l1d=_cache(64, 2, 1), l1i=_cache(64, 2, 1)),
        ]
        for data, inst in ((empty, trace.ifetch_addresses),
                           (trace.data_addresses, empty),
                           (empty, empty)):
            hollow = SyntheticTrace(
                instructions=trace.instructions,
                data_addresses=data,
                data_is_store=np.zeros(data.size, dtype=bool),
                ifetch_addresses=inst,
                branch_sites=trace.branch_sites,
                branch_taken=trace.branch_taken,
            )
            self._assert_oracle(machines, hollow)

    @pytest.mark.parametrize("lines", [
        (64, 128, 256),  # each level's lines larger: the side's footprint
        (128, 64, 32),  # each smaller: every level its own stream's
        (64, 32, 128),
        (128, 128, 64),
        (32, 256, 64),
    ])
    def test_mixed_line_sizes(self, lines):
        rnd = rng_for("footprint-lines", *lines)
        l1, l2, l3 = lines
        machines = [
            replace(
                SKYLAKE,
                l1d=sample_cache_config(rnd, line_bytes=l1),
                l1i=sample_cache_config(rnd, line_bytes=l1),
                l2=_cache(l2, rnd.choice([4, 8, 16]), rnd.choice([2, 4, 8]),
                          sample_policy(rnd)),
                l3=_cache(l3, rnd.choice([8, 16, 32]), rnd.choice([4, 8, 16])),
            )
            for _ in range(4)
        ]
        self._assert_oracle(machines, self.TRACE)

    def test_coarser_lines_in_front_keep_the_level_on_its_own_stream(self):
        # A 32-byte-line L3 behind a 128-byte-line L2: the L2 can hold
        # the line a 32-byte line's first touch falls in, so that touch
        # never reaches the L3.  Counting the side's first touches there
        # gave 477 L3 data misses where the oracle counts 476.
        machine = replace(
            SKYLAKE,
            l2=CacheConfig(8 * 1024, line_bytes=128, associativity=4),
            l3=CacheConfig(64 * 1024, line_bytes=32, associativity=16),
        )
        trace = synthesize_trace(MCF, 20_000, seed=5)
        (got,) = _replay([machine], trace, 0.25)
        assert got.data_misses[2] == 476
        assert got == reference_counts(machine, trace, 0.25)

    @pytest.mark.parametrize("lines", [
        [5, 3, 5, 1, 3, 3, 0],
        [(1 << 62) + 3, 7, (1 << 62) + 3, 7, 1],  # too wide to pack
        [-4, 9, -4, -1, 9],  # negative lines sort stably too
        [42],
        [],
    ])
    def test_footprint_keys(self, lines):
        lines = np.asarray(lines, dtype=np.int64)
        footprint = _Footprint(lines)
        distinct, first = np.unique(lines, return_index=True)
        assert footprint.lines.tolist() == distinct.tolist()
        assert footprint.first.tolist() == first.tolist()
        assert footprint.touches.tolist() == sorted(first.tolist())
        assert not footprint.touches.flags.writeable


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
