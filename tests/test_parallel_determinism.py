"""Determinism regression tests for the parallel sweep and disk cache.

The contract (DESIGN.md, "Parallel execution & caching"): a feature
matrix built with any worker count or cache temperature is
**bit-identical** — same floats, same row/column order, same digest —
to the per-pair oracle, a :meth:`Profiler.profile` loop that profiles
each (workload, machine) pair on its own.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.perf.dataset import FeatureMatrix, build_feature_matrix
from repro.perf.counters import SIMILARITY_METRICS
from repro.perf.profiler import Profiler
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine
from repro.workloads.spec import Suite, workloads_in_suite

WORKLOADS = [s.name for s in workloads_in_suite(Suite.SPEC2017_SPEED_INT)]
TRACE_KWARGS = dict(engine="trace", trace_instructions=2_000)
TRACE_WORKLOADS = WORKLOADS[:4]
TRACE_MACHINES = ("skylake-i7-6700", "sparc-t4")


def per_pair_matrix(
    profiler, specs=WORKLOADS, machine_names=PAPER_MACHINE_NAMES
) -> FeatureMatrix:
    """The per-pair oracle: one ``profiler.profile`` call per pair."""
    machines = [get_machine(m) for m in machine_names]
    features = tuple(
        f"{metric.value}@{machine.name}"
        for machine in machines
        for metric in SIMILARITY_METRICS
    )
    rows = np.empty((len(specs), len(features)), dtype=float)
    for i, name in enumerate(specs):
        row = []
        for machine in machines:
            report = profiler.profile(name, machine)
            row.extend(
                report.metrics.get(metric, 0.0)
                for metric in SIMILARITY_METRICS
            )
        rows[i] = row
    return FeatureMatrix(
        values=rows, workloads=tuple(specs), features=features
    )


def assert_bit_identical(a: FeatureMatrix, b: FeatureMatrix) -> None:
    assert a.workloads == b.workloads  # row order
    assert a.features == b.features    # column order
    assert a.values.tobytes() == b.values.tobytes()  # exact float bits
    assert np.array_equal(a.values, b.values)
    assert a.digest() == b.digest()


class TestAnalyticEngine:
    @pytest.fixture(scope="class")
    def serial(self):
        return build_feature_matrix(WORKLOADS, profiler=Profiler(), jobs=1)

    def test_serial_matches_the_pre_pr_path(self, serial):
        assert_bit_identical(serial, per_pair_matrix(Profiler()))

    @pytest.mark.parametrize("jobs", (2, 4))
    def test_parallel_jobs_are_bit_identical(self, serial, jobs):
        parallel = build_feature_matrix(
            WORKLOADS, profiler=Profiler(), jobs=jobs
        )
        assert_bit_identical(serial, parallel)


class TestTraceEngine:
    @pytest.fixture(scope="class")
    def serial(self):
        return build_feature_matrix(
            TRACE_WORKLOADS,
            machines=TRACE_MACHINES,
            profiler=Profiler(**TRACE_KWARGS),
            jobs=1,
        )

    def test_parallel_trace_sweep_is_bit_identical(self, serial):
        parallel = build_feature_matrix(
            TRACE_WORKLOADS,
            machines=TRACE_MACHINES,
            profiler=Profiler(**TRACE_KWARGS),
            jobs=4,
        )
        assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_trace_sweep_matches_the_per_pair_loop(self, jobs):
        swept = build_feature_matrix(
            TRACE_WORKLOADS,
            machines=TRACE_MACHINES,
            profiler=Profiler(**TRACE_KWARGS),
            jobs=jobs,
        )
        oracle = per_pair_matrix(
            Profiler(**TRACE_KWARGS), TRACE_WORKLOADS, TRACE_MACHINES
        )
        assert_bit_identical(swept, oracle)


class TestDiskCacheDeterminism:
    def test_warm_matrix_is_bit_identical_to_cold(self, tmp_path):
        cold = build_feature_matrix(
            WORKLOADS, profiler=Profiler(cache_dir=tmp_path), jobs=2
        )
        warm_profiler = Profiler(cache_dir=tmp_path)
        warm = build_feature_matrix(WORKLOADS, profiler=warm_profiler, jobs=2)
        assert_bit_identical(cold, warm)
        info = warm_profiler.cache_info()
        assert info.misses == 0
        assert info.disk_hits == len(WORKLOADS) * len(PAPER_MACHINE_NAMES)

    def test_warm_trace_sweep_is_at_least_5x_faster_than_cold(self, tmp_path):
        # The acceptance bar for the disk cache: a warm re-run of a
        # trace-engine sweep loads pickles instead of simulating, which
        # is orders of magnitude faster; >= 5x leaves a wide margin.
        workloads = WORKLOADS[:6]
        machines = ("skylake-i7-6700", "sparc-t4")

        def sweep():
            profiler = Profiler(
                engine="trace", trace_instructions=20_000, cache_dir=tmp_path
            )
            start = time.perf_counter()
            matrix = build_feature_matrix(
                workloads, machines=machines, profiler=profiler, jobs=1
            )
            return matrix, time.perf_counter() - start, profiler

        cold_matrix, cold_time, _ = sweep()
        warm_matrix, warm_time, warm_profiler = sweep()
        assert_bit_identical(cold_matrix, warm_matrix)
        assert warm_profiler.cache_info().misses == 0
        assert cold_time >= 5.0 * warm_time, (
            f"warm {warm_time:.3f}s vs cold {cold_time:.3f}s"
        )


class TestCliDataset:
    """`repro dataset --jobs 4` == `--jobs 1`, down to the CSV bytes."""

    def _run(self, tmp_path, jobs, capsys):
        from repro.cli import main

        out = tmp_path / f"matrix-{jobs}.csv"
        assert main([
            "dataset", "--suite", "speed-int", "--jobs", str(jobs),
            "--no-disk-cache", "--out", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        digest = next(
            line.split(": ", 1)[1]
            for line in stdout.splitlines()
            if line.startswith("digest: ")
        )
        return digest, out.read_bytes()

    def test_jobs4_byte_identical_to_jobs1(self, tmp_path, capsys):
        digest_1, csv_1 = self._run(tmp_path, 1, capsys)
        digest_4, csv_4 = self._run(tmp_path, 4, capsys)
        assert digest_1 == digest_4
        assert csv_1 == csv_4

    def test_dataset_reports_disk_cache_hits(self, tmp_path, capsys):
        from repro.cli import main

        argv = ["dataset", "--suite", "speed-int",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "70 disk hits, 0 computed" in out
