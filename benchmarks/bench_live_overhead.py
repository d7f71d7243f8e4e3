"""Benchmark — live telemetry hub overhead and digest identity.

Times the same two-worker trace sweep with the live hub armed and
an HTTP client scraping ``/metrics`` + ``/status`` every 100 ms, versus
the hub fully off, best-of-3 each, and asserts the guarantee that makes
``--serve-port`` safe to leave on: report digests are bit-identical in
both modes.  Scrape counts and the measured overhead land in
``extra_info``; the served CLI runs are recorded to the obs ledger
(``--serve-port`` implies tracing) exactly like profiled runs are.

Run as a script for the CI gate (subprocess-isolated, so each variant
pays identical interpreter/import costs)::

    python benchmarks/bench_live_overhead.py --check --reps 3 \\
        --budget 0.05

which exits non-zero if digests differ, the server was never scraped,
or the best served wall time exceeds ``(1 + budget) x`` the best plain
wall time.
"""

import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request

from repro.obs import httpd as obs_httpd
from repro.obs import live as obs_live
from repro.obs import openmetrics
from repro.perf.dataset import build_feature_matrix
from repro.perf.profiler import Profiler

WORKLOADS = (
    "505.mcf_r", "541.leela_r", "525.x264_r", "502.gcc_r",
    "507.cactubssn_r", "519.lbm_r", "549.fotonik3d_r", "511.povray_r",
)
MACHINES = ("skylake-i7-6700", "sparc-t4", "xeon-e5405")
TRACE_INSTRUCTIONS = 20_000
JOBS = 2
SCRAPE_INTERVAL_S = 0.1


def _sweep():
    profiler = Profiler(engine="trace", trace_instructions=TRACE_INSTRUCTIONS)
    return build_feature_matrix(
        WORKLOADS,
        machines=MACHINES,
        profiler=profiler,
        jobs=JOBS,
    )


def _scrape_forever(url, halt, tally):
    """Hit /metrics and /status until halted; count parseable scrapes."""
    while not halt.is_set():
        try:
            with urllib.request.urlopen(url + "/metrics", timeout=1) as rsp:
                openmetrics.parse_openmetrics(rsp.read().decode())
            with urllib.request.urlopen(url + "/status", timeout=1) as rsp:
                rsp.read()
            tally[0] += 1
        except Exception:
            tally[1] += 1
        halt.wait(SCRAPE_INTERVAL_S)


def test_live_hub_overhead(benchmark):
    # Plain best-of-3 by hand; the served variant — hub active, HTTP
    # server up, a client scraping at 10 Hz — under the benchmark
    # clock.  The delta is the hub's full cost: the worker telemetry
    # queue, parent-side folding, and concurrent scrape rendering.
    plain_best, plain_digest = 1e9, None
    for _ in range(3):
        t0 = time.perf_counter()
        matrix = _sweep()
        plain_best = min(plain_best, time.perf_counter() - t0)
        plain_digest = matrix.digest()

    def served_sweep():
        obs_live.activate(monitor=False)
        server = obs_httpd.start_server(port=0)
        halt = threading.Event()
        tally = [0, 0]
        scraper = threading.Thread(
            target=_scrape_forever, args=(server.url, halt, tally),
            daemon=True,
        )
        scraper.start()
        try:
            return _sweep()
        finally:
            halt.set()
            scraper.join(timeout=2)
            server.close()
            obs_live.deactivate()
            benchmark.extra_info["scrapes"] = (
                benchmark.extra_info.get("scrapes", 0) + tally[0]
            )
            benchmark.extra_info["scrape_errors"] = (
                benchmark.extra_info.get("scrape_errors", 0) + tally[1]
            )

    matrix = benchmark.pedantic(served_sweep, rounds=3, iterations=1)
    assert matrix.digest() == plain_digest, "live hub changed the results"
    assert benchmark.extra_info["scrapes"] > 0, "server was never scraped"
    benchmark.extra_info["plain_best_s"] = plain_best
    if benchmark.stats is not None:  # absent under --benchmark-disable
        served_best = benchmark.stats.stats.min
        benchmark.extra_info["overhead_pct"] = round(
            100.0 * (served_best / plain_best - 1.0), 2
        )


def _wait_for_url(errpath, proc, timeout_s=30.0):
    """Poll the subprocess's stderr file for the serve banner."""
    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "sweep exited before announcing its telemetry endpoint"
            )
        with open(errpath, "r") as handle:
            match = re.search(
                r"live telemetry at (http://\S+)", handle.read()
            )
        if match is not None:
            return match.group(1)
        time.sleep(0.02)
    raise SystemExit("timed out waiting for the telemetry endpoint banner")


def _cli_run(serve):
    """One subprocess sweep; returns (wall_seconds, digest, scrapes)."""
    argv = [
        sys.executable, "-m", "repro.cli", "dataset",
        "--suite", "rate-int", "--engine", "trace",
        "--jobs", "2",
    ]
    if serve:
        argv += ["--serve-port", "0"]
    with tempfile.TemporaryDirectory() as tmp:
        errpath = os.path.join(tmp, "stderr.log")
        with open(errpath, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, text=True
            )
            halt = threading.Event()
            tally = [0, 0]
            scraper = None
            if serve:
                url = _wait_for_url(errpath, proc)
                scraper = threading.Thread(
                    target=_scrape_forever, args=(url, halt, tally),
                    daemon=True,
                )
                scraper.start()
            stdout, _ = proc.communicate()
            wall = time.perf_counter() - t0
            halt.set()
            if scraper is not None:
                scraper.join(timeout=2)
        with open(errpath, "r") as handle:
            stderr_tail = handle.read()[-2000:]
    if proc.returncode != 0:
        raise SystemExit(
            f"sweep failed ({' '.join(argv)}):\n{stderr_tail}"
        )
    match = re.search(r"digest:\s+([0-9a-f]{64})", stdout)
    if match is None:
        raise SystemExit(f"no digest line in output:\n{stdout[-2000:]}")
    return wall, match.group(1), tally[0]


def _check(reps, budget):
    """CI gate: digest identity, live scrapes, and the wall budget."""
    plain, served = [], []
    digests = set()
    scrape_total = 0
    # Interleave the variants so slow-runner drift hits both equally.
    for rep in range(reps):
        wall, digest, _ = _cli_run(serve=False)
        plain.append(wall)
        digests.add(digest)
        wall, digest, scrapes = _cli_run(serve=True)
        served.append(wall)
        digests.add(digest)
        scrape_total += scrapes
        print(
            f"rep {rep + 1}/{reps}: off {plain[-1]:.2f}s, "
            f"serve {served[-1]:.2f}s ({scrapes} scrapes)",
            flush=True,
        )
    overhead = min(served) / min(plain) - 1.0
    print(f"digests: {len(digests)} distinct ({next(iter(digests))[:16]}...)")
    print(
        f"best-of-{reps}: off {min(plain):.2f}s, serve {min(served):.2f}s "
        f"-> overhead {100 * overhead:+.1f}% (budget {100 * budget:.0f}%)"
    )
    failed = False
    if len(digests) != 1:
        print("FAIL: --serve-port changed the report digest")
        failed = True
    if scrape_total == 0:
        print("FAIL: the telemetry endpoint was never scraped mid-run")
        failed = True
    if overhead > budget:
        print("FAIL: live-hub overhead exceeds the budget")
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
