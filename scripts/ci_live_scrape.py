"""CI gate — scrape the live telemetry endpoint during a real sweep.

Drives the full seven-machine ``dataset`` sweep twice in subprocesses:
once plain (the control) and once with ``--serve-port 0``.  While the
served sweep runs, this script scrapes ``GET /metrics`` and
``GET /status`` repeatedly, and the run only passes if

* at least one mid-run ``/metrics`` body parses as valid OpenMetrics
  (via ``repro.obs.openmetrics.parse_openmetrics``) with the negotiated
  content type and carries live progress/executor families,
* at least one mid-run ``/status`` snapshot reports the sweep in
  flight (``active: true`` with a non-empty sweep list), and
* the served sweep's report digest is bit-identical to the control's —
  serving telemetry must never perturb results.

Usage (from the repository root, with ``PYTHONPATH=src``)::

    python scripts/ci_live_scrape.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import openmetrics  # noqa: E402

SWEEP_ARGV = [
    sys.executable, "-m", "repro.cli", "dataset",
    "--suite", "rate-int", "--engine", "trace",
    "--jobs", "4",
]
SCRAPE_INTERVAL_S = 0.05
URL_TIMEOUT_S = 30.0
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)
DIGEST_RE = re.compile(r"digest:\s+([0-9a-f]{64})")


def _digest_of(stdout, context):
    match = DIGEST_RE.search(stdout)
    if match is None:
        raise SystemExit(
            f"no digest line in {context} output:\n{stdout[-2000:]}"
        )
    return match.group(1)


def _control_run():
    proc = subprocess.run(SWEEP_ARGV, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"control sweep failed:\n{proc.stderr[-2000:]}")
    return _digest_of(proc.stdout, "control")


def _wait_for_url(errpath, proc):
    deadline = time.perf_counter() + URL_TIMEOUT_S
    while time.perf_counter() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                "served sweep exited before announcing its endpoint"
            )
        with open(errpath, "r") as handle:
            match = re.search(
                r"live telemetry at (http://\S+)", handle.read()
            )
        if match is not None:
            return match.group(1)
        time.sleep(0.02)
    raise SystemExit("timed out waiting for the telemetry endpoint banner")


def _scrape_until_exit(url, proc):
    """Scrape both endpoints until the sweep exits; return the evidence."""
    evidence = {
        "metrics_ok": 0,
        "status_live": 0,
        "families": set(),
        "content_type": None,
        "scrape_errors": 0,
    }
    while proc.poll() is None:
        try:
            with urllib.request.urlopen(url + "/metrics", timeout=2) as rsp:
                evidence["content_type"] = rsp.headers["Content-Type"]
                families = openmetrics.parse_openmetrics(
                    rsp.read().decode()
                )
            evidence["families"].update(families)
            evidence["metrics_ok"] += 1
            with urllib.request.urlopen(url + "/status", timeout=2) as rsp:
                status = json.loads(rsp.read().decode())
            if status.get("active") and status.get("sweeps"):
                evidence["status_live"] += 1
        except Exception:
            # The window between server start and sweep exit is what we
            # are probing; scrapes racing the shutdown are expected.
            evidence["scrape_errors"] += 1
        time.sleep(SCRAPE_INTERVAL_S)
    return evidence


def _served_run():
    with tempfile.TemporaryDirectory() as tmp:
        errpath = os.path.join(tmp, "stderr.log")
        with open(errpath, "w") as err:
            proc = subprocess.Popen(
                SWEEP_ARGV + ["--serve-port", "0"],
                stdout=subprocess.PIPE, stderr=err, text=True,
            )
            url = _wait_for_url(errpath, proc)
            print(f"scraping {url} during the sweep", flush=True)
            evidence = _scrape_until_exit(url, proc)
            stdout, _ = proc.communicate()
        with open(errpath, "r") as handle:
            stderr_tail = handle.read()[-2000:]
    if proc.returncode != 0:
        raise SystemExit(f"served sweep failed:\n{stderr_tail}")
    return _digest_of(stdout, "served"), evidence


def main():
    print(f"control: {' '.join(SWEEP_ARGV)}", flush=True)
    control_digest = _control_run()
    print(f"control digest {control_digest[:16]}...", flush=True)
    served_digest, evidence = _served_run()
    print(
        f"served digest {served_digest[:16]}..., "
        f"{evidence['metrics_ok']} metrics scrapes, "
        f"{evidence['status_live']} live status snapshots, "
        f"{evidence['scrape_errors']} races, "
        f"{len(evidence['families'])} metric families",
        flush=True,
    )
    failures = []
    if evidence["metrics_ok"] == 0:
        failures.append("no mid-run /metrics scrape parsed as OpenMetrics")
    if evidence["content_type"] not in (None, OPENMETRICS_CONTENT_TYPE):
        failures.append(
            f"wrong /metrics content type: {evidence['content_type']!r}"
        )
    expected = ("repro_progress_completed", "repro_executor_pool_jobs")
    missing = [f for f in expected if f not in evidence["families"]]
    if evidence["metrics_ok"] and missing:
        failures.append(f"live families never scraped: {missing}")
    if evidence["status_live"] == 0:
        failures.append("/status never reported the sweep in flight")
    if served_digest != control_digest:
        failures.append(
            f"--serve-port changed the digest: {control_digest[:16]}... "
            f"vs {served_digest[:16]}..."
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("PASS: live endpoint served valid telemetry mid-run and "
              "left the digest bit-identical")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
