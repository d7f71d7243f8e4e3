"""Benchmark — resource-profiler overhead and digest identity.

Times the same two-worker trace sweep with the sampling resource
profiler attached (``--profile all``) and without it, best-of-3 each,
and asserts the guarantee that makes profiling safe to leave on:
report digests are bit-identical in every mode.  The measured sampler
overhead and the merged worker-span counts land in ``extra_info``.

Run as a script for the CI gate (subprocess-isolated, so each variant
pays identical interpreter/import costs)::

    python benchmarks/bench_profiling_overhead.py --check --reps 3 \\
        --budget 0.05

which exits non-zero if digests differ or the best profiled wall time
exceeds ``(1 + budget) x`` the best plain wall time.
"""

import os
import re
import subprocess
import sys
import time

from repro import obs
from repro.obs import profiling
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler

WORKLOADS = (
    "505.mcf_r", "541.leela_r", "525.x264_r", "502.gcc_r",
    "507.cactubssn_r", "519.lbm_r", "549.fotonik3d_r", "511.povray_r",
)
MACHINES = ("skylake-i7-6700", "sparc-t4", "xeon-e5405")
TRACE_INSTRUCTIONS = 20_000
JOBS = 2


def _sweep():
    # Workers profile in the mode of whatever session the caller holds.
    profiler = Profiler(engine="trace", trace_instructions=TRACE_INSTRUCTIONS)
    return build_feature_matrix(
        WORKLOADS,
        machines=MACHINES,
        profiler=profiler,
        jobs=JOBS,
    )


def test_profiler_overhead(benchmark):
    # Plain best-of-3 by hand; profiled best-of-3 under the benchmark
    # clock.  Neither side enables span tracing, so the delta is the
    # profiler's own cost: samplers, RSS reads, payload shipping.
    plain_best, plain_digest = 1e9, None
    for _ in range(3):
        t0 = time.perf_counter()
        matrix = _sweep()
        plain_best = min(plain_best, time.perf_counter() - t0)
        plain_digest = matrix.digest()

    def profiled_sweep():
        profiling.start_session("all")
        try:
            return _sweep()
        finally:
            data = profiling.end_session()
            benchmark.extra_info["sampler"] = data.sampler
            benchmark.extra_info["sample_count"] = data.sample_count
            benchmark.extra_info["worker_profiles"] = len(data.workers)
            benchmark.extra_info["peak_rss_bytes"] = data.peak_rss_bytes

    matrix = benchmark.pedantic(profiled_sweep, rounds=3, iterations=1)
    assert matrix.digest() == plain_digest, "profiling changed the results"
    assert benchmark.extra_info["sample_count"] > 0
    assert benchmark.extra_info["worker_profiles"] > 0
    benchmark.extra_info["plain_best_s"] = plain_best
    if benchmark.stats is not None:  # absent under --benchmark-disable
        profiled_best = benchmark.stats.stats.min
        benchmark.extra_info["overhead_pct"] = round(
            100.0 * (profiled_best / plain_best - 1.0), 2
        )


def test_worker_span_merge_counts(benchmark):
    # An observed profiled sweep must stitch every process worker's
    # chunk spans back under the sweep span; the adopted-span counter
    # and the per-pid attribution go to extra_info.
    def observed_sweep():
        obs.metrics.reset()
        obs.enable()
        profiling.start_session("cpu")
        try:
            return _sweep()
        finally:
            profiling.end_session()
            obs.disable()

    matrix = benchmark.pedantic(observed_sweep, rounds=1, iterations=1)
    assert matrix.n_workloads == len(WORKLOADS)
    snapshot = obs.snapshot()
    chunk_pids = {
        node.pid
        for root in obs.finished_roots()
        for node in root.walk()
        if node.name == "executor.chunk"
    }
    adopted = snapshot["counters"].get("executor.spans.adopted", 0)
    benchmark.extra_info["spans_adopted"] = adopted
    benchmark.extra_info["worker_pids"] = len(chunk_pids - {os.getpid()})
    assert adopted > 0
    assert chunk_pids - {os.getpid()}, "no worker spans were merged"


def _cli_run(profile):
    """One subprocess sweep; returns (wall_seconds, digest)."""
    argv = [
        sys.executable, "-m", "repro.cli", "dataset",
        "--suite", "rate-int", "--engine", "trace",
        "--jobs", "2",
    ]
    if profile != "off":
        argv += ["--profile", profile]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(
            f"sweep failed ({' '.join(argv)}):\n{proc.stderr[-2000:]}"
        )
    match = re.search(r"digest:\s+([0-9a-f]{64})", proc.stdout)
    if match is None:
        raise SystemExit(f"no digest line in output:\n{proc.stdout[-2000:]}")
    return wall, match.group(1)


def _check(reps, budget):
    """CI gate: digest identity plus the wall-overhead budget."""
    plain, profiled = [], []
    digests = set()
    # Interleave the variants so slow-runner drift hits both equally.
    for rep in range(reps):
        wall, digest = _cli_run("off")
        plain.append(wall)
        digests.add(digest)
        wall, digest = _cli_run("all")
        profiled.append(wall)
        digests.add(digest)
        print(
            f"rep {rep + 1}/{reps}: off {plain[-1]:.2f}s, "
            f"all {profiled[-1]:.2f}s",
            flush=True,
        )
    overhead = min(profiled) / min(plain) - 1.0
    print(f"digests: {len(digests)} distinct ({next(iter(digests))[:16]}...)")
    print(
        f"best-of-{reps}: off {min(plain):.2f}s, all {min(profiled):.2f}s "
        f"-> overhead {100 * overhead:+.1f}% (budget {100 * budget:.0f}%)"
    )
    failed = False
    if len(digests) != 1:
        print("FAIL: --profile all changed the report digest")
        failed = True
    if overhead > budget:
        print("FAIL: profiler overhead exceeds the budget")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    import argparse

    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--check", action="store_true",
                     help="run the CI digest/overhead gate")
    cli.add_argument("--reps", type=int, default=3,
                     help="sweeps per variant (best-of-N)")
    cli.add_argument("--budget", type=float, default=0.05,
                     help="allowed fractional wall overhead")
    options = cli.parse_args()
    if not options.check:
        cli.error("use --check (or run under pytest for the benchmarks)")
    sys.exit(_check(options.reps, options.budget))
