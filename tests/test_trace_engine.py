"""Trace-engine tests, including agreement with the analytic engine."""

import pytest

from repro.errors import ConfigurationError
from repro.perf.analytic import profile_analytic
from repro.perf.counters import SIMILARITY_METRICS, Metric
from repro.perf.trace_engine import ENGINE_AGREEMENT_TOLERANCES, profile_trace
from repro.uarch.machine import get_machine
from repro.workloads.spec import get_workload

SKYLAKE = get_machine("skylake-i7-6700")
WINDOW = 80_000

# Single source of truth for the engine-agreement envelope; the bounds
# live next to the engine so widening them is an explicit model change.
TOL = ENGINE_AGREEMENT_TOLERANCES


@pytest.fixture(scope="module")
def engines():
    """(analytic, trace) reports for a representative workload set."""
    names = ("505.mcf_r", "541.leela_r", "519.lbm_r", "507.cactubssn_r")
    result = {}
    for name in names:
        spec = get_workload(name)
        result[name] = (
            profile_analytic(spec, SKYLAKE),
            profile_trace(spec, SKYLAKE, instructions=WINDOW),
        )
    return result


class TestTraceReport:
    def test_all_metrics_present(self, engines):
        _, trace = engines["505.mcf_r"]
        for metric in SIMILARITY_METRICS:
            assert metric in trace.metrics

    def test_deterministic(self):
        spec = get_workload("541.leela_r")
        first = profile_trace(spec, SKYLAKE, instructions=20_000)
        second = profile_trace(spec, SKYLAKE, instructions=20_000)
        assert first.metrics == second.metrics

    def test_warmup_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            profile_trace(
                get_workload("541.leela_r"), SKYLAKE,
                instructions=1000, warmup_fraction=1.0,
            )

    def test_power_present_on_power_machine(self, engines):
        _, trace = engines["505.mcf_r"]
        assert trace.power is not None


class TestEngineAgreement:
    """The two engines model the same workloads; they must agree on L1
    behaviour tightly and on ordering everywhere.

    Known, documented divergences: the trace window truncates very long
    reuse distances (outer-level misses read slightly high) and the
    synthesized branch streams carry less learnable structure than the
    analytic pattern model assumes (mispredictions read ~2x high)."""

    def test_l1d_mpki_close(self, engines):
        for name, (analytic, trace) in engines.items():
            assert trace[Metric.L1D_MPKI] == pytest.approx(
                analytic[Metric.L1D_MPKI], **TOL["l1d_mpki"]
            ), name

    def test_l1i_mpki_close(self, engines):
        # The finite window leaves a ~1.5 MPKI warm-up floor on the
        # instruction side; agreement is absolute-with-floor.
        for name, (analytic, trace) in engines.items():
            assert trace[Metric.L1I_MPKI] == pytest.approx(
                analytic[Metric.L1I_MPKI], **TOL["l1i_mpki"]
            ), name

    def test_taken_pki_close(self, engines):
        # The window draws a finite hot-site sample, so the realized
        # taken share wobbles around the profile's target.
        for name, (analytic, trace) in engines.items():
            assert trace[Metric.BRANCH_TAKEN_PKI] == pytest.approx(
                analytic[Metric.BRANCH_TAKEN_PKI], **TOL["branch_taken_pki"]
            ), name

    def test_l1d_ordering_preserved(self, engines):
        names = list(engines)
        analytic_order = sorted(
            names, key=lambda n: engines[n][0][Metric.L1D_MPKI]
        )
        trace_order = sorted(names, key=lambda n: engines[n][1][Metric.L1D_MPKI])
        assert analytic_order == trace_order

    def test_branch_ordering_preserved(self, engines):
        names = list(engines)
        analytic_order = sorted(
            names, key=lambda n: engines[n][0][Metric.BRANCH_MPKI]
        )
        trace_order = sorted(names, key=lambda n: engines[n][1][Metric.BRANCH_MPKI])
        assert analytic_order == trace_order

    def test_dtlb_agreement_for_tlb_intensive_workloads(self, engines):
        # For low-pressure workloads the trace synthesizer packs cold
        # (streaming) lines densely into pages, which the analytic page
        # model does not capture; agreement is asserted only where TLB
        # pressure is the defining behaviour (mcf, cactuBSSN).
        factor = TOL["l1_dtlb_mpmi"]["factor"]
        for name, (analytic, trace) in engines.items():
            a, t = analytic[Metric.L1_DTLB_MPMI], trace[Metric.L1_DTLB_MPMI]
            if a < 20_000:
                continue
            assert 1 / factor <= t / a <= factor, name

    def test_branch_mpki_within_factor_five(self, engines):
        # The synthetic streams realize less learnable structure than
        # the analytic pattern model assumes, so the exact predictors
        # mispredict ~2x more; ordering (tested above) is what the
        # downstream analyses rely on.
        factor = TOL["branch_mpki"]["factor"]
        for name, (analytic, trace) in engines.items():
            a, t = analytic[Metric.BRANCH_MPKI], trace[Metric.BRANCH_MPKI]
            if a < 0.5 and t < 0.5:
                continue
            assert 1 / factor <= t / a <= factor, name

    def test_mix_metrics_identical(self, engines):
        for name, (analytic, trace) in engines.items():
            for metric in (
                Metric.PCT_LOAD,
                Metric.PCT_STORE,
                Metric.PCT_BRANCH,
                Metric.PCT_SIMD,
            ):
                assert trace[metric] == pytest.approx(analytic[metric])


class TestProfilerFacade:
    def test_engine_selection(self):
        from repro.perf.profiler import Profiler

        with pytest.raises(ConfigurationError):
            Profiler(engine="quantum")

    def test_trace_profiler_caches(self):
        from repro.perf.profiler import Profiler

        profiler = Profiler(engine="trace", trace_instructions=10_000)
        first = profiler.profile("541.leela_r", "skylake-i7-6700")
        second = profiler.profile("541.leela_r", "skylake-i7-6700")
        assert first is second

    def test_executor_sweep_covers_cross_product(self):
        from repro.perf.executor import ProfilingExecutor
        from repro.perf.profiler import Profiler

        reports = ProfilingExecutor(Profiler()).run([
            (workload, machine)
            for workload in ("541.leela_r", "505.mcf_r")
            for machine in ("skylake-i7-6700", "sparc-t4")
        ])
        assert len(reports) == 4
        assert {(r.workload, r.machine) for r in reports} == {
            ("541.leela_r", "skylake-i7-6700"),
            ("541.leela_r", "sparc-t4"),
            ("505.mcf_r", "skylake-i7-6700"),
            ("505.mcf_r", "sparc-t4"),
        }

    def test_clear_cache(self):
        from repro.perf.profiler import Profiler

        profiler = Profiler()
        first = profiler.profile("541.leela_r", "skylake-i7-6700")
        profiler.clear_cache()
        second = profiler.profile("541.leela_r", "skylake-i7-6700")
        assert first is not second
        assert first.metrics == second.metrics
