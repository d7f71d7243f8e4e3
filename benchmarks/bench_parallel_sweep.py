"""Benchmark — parallel trace-engine sweep, cold vs warm disk cache.

Times the same (workload, machine) trace-profiling sweep at 1/2/4
workers with a cold in-process cache, and once more against a warm
persistent disk cache, quantifying the two scaling levers this repo
offers for larger cross-suite studies: fan-out and persistence.  Each
variant asserts bit-identical results against the serial baseline, so
the speedups are guaranteed to be like-for-like.
"""

import time

import pytest

from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler

WORKLOADS = (
    "505.mcf_r", "541.leela_r", "525.x264_r", "502.gcc_r",
    "507.cactubssn_r", "519.lbm_r", "549.fotonik3d_r", "511.povray_r",
)
MACHINES = ("skylake-i7-6700", "sparc-t4", "xeon-e5405")
TRACE_INSTRUCTIONS = 20_000


def _sweep(jobs, cache_dir=None):
    profiler = Profiler(
        engine="trace",
        trace_instructions=TRACE_INSTRUCTIONS,
        cache_dir=cache_dir,
    )
    matrix = build_feature_matrix(
        WORKLOADS,
        machines=MACHINES,
        profiler=profiler,
        jobs=jobs,
    )
    return matrix, profiler


@pytest.fixture(scope="module")
def serial_digest():
    matrix, _ = _sweep(jobs=1)
    return matrix.digest()


# jobs > 1 runs that many worker processes, so cold-sweep scaling is
# bounded by core count (and by the pool's start-up on small sweeps).
@pytest.mark.parametrize("jobs", (1, 2, 4))
def test_parallel_sweep_cold(run_once, serial_digest, jobs, benchmark):
    matrix, profiler = run_once(_sweep, jobs)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["cache"] = "cold"
    assert matrix.digest() == serial_digest
    assert profiler.cache_info().misses == len(WORKLOADS) * len(MACHINES)


@pytest.mark.parametrize("jobs", (1, 4))
def test_parallel_sweep_warm_disk(
    run_once, serial_digest, jobs, benchmark, tmp_path
):
    t0 = time.perf_counter()
    _sweep(jobs=4, cache_dir=tmp_path)  # populate the disk cache
    cold_time = time.perf_counter() - t0
    matrix, profiler = run_once(_sweep, jobs, tmp_path)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["cache"] = "warm"
    benchmark.extra_info["cold_seconds"] = cold_time
    assert matrix.digest() == serial_digest
    info = profiler.cache_info()
    assert info.misses == 0
    assert info.disk_hits == len(WORKLOADS) * len(MACHINES)
    # The acceptance bar: a warm re-run beats the cold sweep >= 5x.
    warm_time = benchmark.stats.stats.mean
    assert cold_time >= 5.0 * warm_time, (
        f"warm {warm_time:.3f}s vs cold {cold_time:.3f}s"
    )
