"""Differential tests: the batched analytic engine against its scalar oracle.

The analytic engine evaluates every miss-ratio quadrature of a machine
batch in one array program.  Its contract is bit-identity with one
quadrature per mixture component per lookup, one pair at a time
(:func:`tests.parity.reference_miss_ratio`,
:func:`tests.parity.reference_analytic_report`), so every comparison
here is ``==`` — through :func:`tests.parity.assert_reports_identical`
for reports — never a tolerance.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.perf.analytic import profile_analytic, profile_analytic_batch
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler
from repro.uarch.machine import all_machines, get_machine, paper_machines
from repro.uarch.tlb import TlbConfig
from repro.workloads import emerging, spec2000, spec2006, spec2017
from repro.workloads.calibration import calibrate_spec
from repro.workloads.profiles import _ROW_BLOCK, ReuseProfile, miss_ratios
from repro.workloads.spec import all_workloads, get_workload

from tests.parity import (
    assert_reports_identical,
    reference_analytic_report,
    reference_calibration,
    reference_miss_ratio,
    rng_for,
    sample_machine_batch,
    sample_workload,
)

#: The specs as the data modules define them, before Table I calibration.
RAW_SPECS = [
    spec
    for module in (spec2017, spec2006, spec2000, emerging)
    for spec in module.SPECS
]


def engine_calls() -> int:
    """Number of ``engine.analytic`` spans recorded so far."""
    return sum(
        span.name == "engine.analytic"
        for root in obs.finished_roots()
        for span in root.walk()
    )


def geometries():
    """Every distinct (capacity, associativity) of the registered machines."""
    found = set()
    for machine in all_machines():
        for cache in (machine.l1d, machine.l1i, machine.l2, machine.l3):
            if cache is not None:
                found.add((cache.num_lines, cache.associativity))
        for tlb in (machine.dtlb, machine.itlb, machine.l2tlb):
            if tlb is not None:
                found.add((tlb.entries, tlb.associativity))
    return sorted(found)


def single_set_tlbs(machine):
    """``machine`` with fully-associative (one-set) L1 TLBs."""
    return replace(
        machine,
        name=f"{machine.name}+fa-tlb",
        dtlb=TlbConfig(
            entries=machine.dtlb.associativity,
            associativity=machine.dtlb.associativity,
            page_bytes=machine.dtlb.page_bytes,
        ),
        itlb=TlbConfig(
            entries=machine.itlb.associativity,
            associativity=machine.itlb.associativity,
            page_bytes=machine.itlb.page_bytes,
        ),
    )


def assert_batch_matches_oracle(spec, machines, context):
    reports = profile_analytic_batch(spec, machines)
    assert len(reports) == len(machines)
    for machine, report in zip(machines, reports):
        assert_reports_identical(
            report,
            reference_analytic_report(spec, machine),
            f"{context}: {spec.name}@{machine.name}",
        )


class TestMissRatios:
    def test_registered_profiles_on_every_geometry(self):
        profiles = {
            profile
            for spec in all_workloads()
            for profile in (
                spec.data_reuse,
                spec.inst_reuse,
                spec.data_reuse.scaled(1.0 / spec.data_page_factor),
                spec.inst_reuse.scaled(1.0 / spec.inst_page_factor),
            )
        }
        requests = [
            (profile, capacity, associativity)
            for profile in sorted(profiles, key=repr)
            for capacity, associativity in geometries()
        ]
        assert miss_ratios(requests) == [
            reference_miss_ratio(*request) for request in requests
        ]

    def test_edge_geometries(self):
        profile = get_workload("505.mcf_r").data_reuse
        edges = [
            (0, 8),            # zero capacity always misses
            (-4.0, 2),
            (512, 0),          # fully associative closed form
            (1e9, 0),
            (8, 8),            # one set: hit iff d < assoc
            (2, 16),           # capacity below associativity
            (48, 48),
            (0.5, 4),
            (513, 8),          # non-integral set count
            (4096, 1),         # direct-mapped
        ]
        requests = [(profile, c, a) for c, a in edges]
        requests += [(profile, 512, 8), (profile, 512, 8)]  # duplicate lookups
        expected = [reference_miss_ratio(*request) for request in requests]
        assert miss_ratios(requests) == expected
        assert expected[0] == expected[1] == 1.0
        for request, want in zip(requests, expected):
            assert request[0].miss_ratio(request[1], request[2]) == want

    def test_overflowing_grid_points_never_hit(self):
        # A wide enough component's grid overflows exp() to inf at its
        # top end; those points must count as misses, not poison the sum.
        wide = ReuseProfile.from_tuples([(1.0, 50.0, 1.0), (1.0, 1e3, 150.0)])
        requests = [(wide, 512, 8), (wide, 4, 4), (wide, 512, 0)]
        with np.errstate(over="ignore", invalid="ignore"):
            got = miss_ratios(requests)
            want = [reference_miss_ratio(*request) for request in requests]
        assert got == want
        assert all(0.0 < ratio < 1.0 for ratio in got)

    @pytest.mark.parametrize(
        "rows", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 2 * _ROW_BLOCK + 1]
    )
    def test_row_counts_around_the_block_size(self, rows, counters):
        profile = ReuseProfile.from_tuples([(1.0, 300.0, 1.2)], cold_fraction=0.01)
        requests = [(profile, 64 * (i + 1), 8) for i in range(rows)]
        # Repeated lookups share their row.
        requests += requests[::3]
        assert miss_ratios(requests) == [
            reference_miss_ratio(*request) for request in requests
        ]
        assert counters()["analytic.quadratures"] == rows


class TestAnalyticBatches:
    def test_every_registered_workload_on_every_machine(self):
        machines = all_machines()
        for spec in all_workloads():
            assert_batch_matches_oracle(spec, machines, "registered")

    def test_batch_of_one(self):
        spec = get_workload("523.xalancbmk_r")
        for machine in all_machines():
            assert_reports_identical(
                profile_analytic(spec, machine),
                reference_analytic_report(spec, machine),
                machine.name,
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_sampled_workloads_on_sampled_batches(self, seed):
        rnd = rng_for("analytic-batch", seed)
        spec = sample_workload(rnd)
        machines = []
        # Every paper machine as a base covers L3-less machines,
        # machines without an L2 TLB and one-set TLBs; mixing two bases
        # mixes page sizes within one batch.
        for base in rnd.sample(paper_machines(), 2):
            machines += sample_machine_batch(rnd, rnd.randint(1, 5), base)
        machines.append(single_set_tlbs(rnd.choice(machines)))
        assert_batch_matches_oracle(spec, machines, f"seed {seed}")

    def test_machines_without_l3_or_l2_tlb(self):
        skylake = get_machine("skylake-i7-6700")
        stripped = [
            replace(skylake, name="no-l3", l3=None),
            replace(skylake, name="no-l2tlb", l2tlb=None),
            replace(skylake, name="neither", l3=None, l2tlb=None),
            single_set_tlbs(skylake),
        ]
        for name in ("505.mcf_r", "548.exchange2_r", "cas-WA"):
            assert_batch_matches_oracle(get_workload(name), stripped, "stripped")


class TestCalibration:
    def test_every_spec_matches_the_scalar_search(self):
        for raw in RAW_SPECS:
            want = reference_calibration(raw)
            assert calibrate_spec(raw) == want, raw.name
            assert get_workload(raw.name) == want, raw.name


class TestEngineCalls:
    """Spies: batching is visible as engine calls and obs counters."""

    def test_serial_sweep_makes_one_engine_call_per_workload(self, counters):
        workloads = ("505.mcf_r", "541.leela_r", "557.xz_r")
        machines = paper_machines()
        build_feature_matrix(workloads, machines, profiler=Profiler(), jobs=1)
        seen = counters()
        assert engine_calls() == len(workloads)
        assert seen["analytic.batches"] == len(workloads)
        assert seen["analytic.profiles"] == len(workloads) * len(machines)
        assert seen["analytic.quadratures"] > 0

    def test_calibration_makes_one_engine_call(self, counters):
        raw = next(spec for spec in RAW_SPECS if spec.name == "500.perlbench_r")
        calibrated = calibrate_spec(raw)
        assert engine_calls() == 1
        assert counters()["analytic.batches"] == 1
        assert calibrated == get_workload(raw.name)


def workload_requests(spec):
    """Lookups of a spec's four reuse profiles on every machine geometry."""
    profiles = (
        spec.data_reuse,
        spec.inst_reuse,
        spec.data_page_reuse,
        spec.inst_page_reuse,
    )
    return [
        (profile, capacity, associativity)
        for profile in profiles
        for capacity, associativity in geometries()
    ]


class TestRowTable:
    """A caller-owned row table: shared rows, exact values, one owner."""

    def test_cold_prefilled_and_shared_tables_match_the_oracle(self, counters):
        rate, speed = get_workload("505.mcf_r"), get_workload("605.mcf_s")
        # Rate/speed twins share their instruction profile, not their data.
        assert rate.inst_reuse.components == speed.inst_reuse.components
        assert rate.data_reuse.components != speed.data_reuse.components
        rate_requests = workload_requests(rate)
        speed_requests = workload_requests(speed)
        rate_want = [reference_miss_ratio(*request) for request in rate_requests]
        speed_want = [reference_miss_ratio(*request) for request in speed_requests]

        table = {}
        assert miss_ratios(rate_requests, table) == rate_want  # cold
        rate_rows = counters()["analytic.quadratures"]
        assert rate_rows == len(table) > 0
        assert miss_ratios(rate_requests, table) == rate_want  # pre-filled
        assert counters()["analytic.quadratures"] == rate_rows
        assert counters()["analytic.rows_requested"] == 2 * rate_rows
        assert miss_ratios(speed_requests, table) == speed_want  # shared
        shared_evaluated = counters()["analytic.quadratures"] - rate_rows

        alone = {}
        assert miss_ratios(speed_requests, alone) == speed_want
        assert 0 < shared_evaluated < len(alone)
        assert {key: table[key] for key in alone} == alone

    def test_a_cold_report_evaluates_each_row_once(self, monkeypatch, tmp_path):
        import repro.workloads.profiles as profiles
        from repro.reporting.report import generate_report

        # The registry load's calibration rows have their own table.
        all_workloads()
        real = profiles._binomial_rows
        evaluated = []

        def spy(rows):
            evaluated.extend(rows)
            return real(rows)

        monkeypatch.setattr(profiles, "_binomial_rows", spy)
        profiler = Profiler()
        generate_report(tmp_path / "REPORT.md", profiler=profiler)
        # 7,196 rows today, each evaluated by exactly one engine call.
        assert len(evaluated) == len(set(evaluated)) == len(profiler.engine_table)

    def test_each_profiler_owns_its_rows(self, counters):
        spec = get_workload("505.mcf_r")
        first, second = Profiler(), Profiler()
        for machine in paper_machines():
            first.profile(spec, machine)
        rows = counters()["analytic.quadratures"]
        assert rows == len(first.engine_table) > 0
        for machine in paper_machines():
            second.profile(spec, machine)
        assert counters()["analytic.quadratures"] == 2 * rows
        assert second.engine_table == first.engine_table

        first.clear_cache()
        assert first.engine_table == {}
        assert second.engine_table
        first.profile(spec, paper_machines()[0])
        assert counters()["analytic.quadratures"] > 2 * rows
