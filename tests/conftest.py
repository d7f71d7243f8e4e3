"""Shared fixtures.

Heavy analysis pipelines are computed once per session and shared by the
many small assertions that examine them.
"""

from __future__ import annotations

import time

import pytest

from repro.obs import trace as obs_trace
from repro.perf.profiler import Profiler
from repro.workloads.spec import Suite, workloads_in_suite

CPU2017_SUITES = (
    Suite.SPEC2017_SPEED_INT,
    Suite.SPEC2017_RATE_INT,
    Suite.SPEC2017_SPEED_FP,
    Suite.SPEC2017_RATE_FP,
)


@pytest.fixture(autouse=True)
def _tracer_keeps_the_real_clock():
    """Fail a test that leaves a fake clock installed in the tracer.

    Spans of every later test would read it instead of the process's
    monotonic clocks.
    """
    yield
    clock = obs_trace._STATE.clock
    assert clock.wall is time.perf_counter and clock.cpu is time.process_time, (
        "test left an injected clock in the tracer; restore it with "
        "obs.reset(clock=Clock())"
    )


@pytest.fixture(scope="session")
def profiler() -> Profiler:
    """A shared analytic profiler so every (workload, machine) pair is
    profiled at most once for the whole test session."""
    return Profiler()


@pytest.fixture
def counters():
    """Enable obs for the test body; yields a counter snapshot reader.

    The registry's Table I calibration runs first, untraced, so the
    test body records only its own engine calls.
    """
    from repro import obs
    from repro.workloads.spec import all_workloads

    all_workloads()
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    obs.enable()
    try:
        yield lambda: obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
        obs.metrics.reset()


@pytest.fixture(scope="session")
def cpu2017_names() -> list:
    return [s.name for s in workloads_in_suite(*CPU2017_SUITES)]


@pytest.fixture(scope="session")
def suite_results(profiler):
    """Similarity analyses of the four CPU2017 sub-suites."""
    from repro.core.similarity import analyze_similarity

    results = {}
    for suite in CPU2017_SUITES:
        names = [s.name for s in workloads_in_suite(suite)]
        results[suite] = analyze_similarity(names, profiler=profiler)
    return results


@pytest.fixture(scope="session")
def balance_report(profiler):
    from repro.core.balance import analyze_balance

    return analyze_balance(profiler=profiler)


@pytest.fixture(scope="session")
def case_study_report(profiler):
    from repro.core.casestudies import analyze_case_studies

    return analyze_case_studies(profiler=profiler)


@pytest.fixture(scope="session")
def rate_speed_comparison(profiler):
    from repro.core.rate_speed import compare_rate_speed

    return compare_rate_speed(profiler=profiler)


@pytest.fixture(scope="session")
def input_set_analysis(profiler):
    from repro.core.inputsets import analyze_input_sets

    return analyze_input_sets(profiler=profiler)


@pytest.fixture(scope="session")
def power_spectrum(profiler):
    from repro.core.power_analysis import analyze_power_spectrum

    return analyze_power_spectrum(profiler=profiler)
