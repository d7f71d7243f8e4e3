"""End-to-end benchmark of the reproduction pipeline's user commands.

Each operation ("op") runs in a fresh ``op.py`` child process, so it
costs what a user's ``repro <command>`` costs: interpreter start,
``import repro``, the Table I calibration and every first-call effect.
The harness times each op from outside, checks its output digest and
prints every metric by name with its unit; the last line of standard
output is one JSON object::

    {"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                      # all workloads, 10 ops each
    python3 benchmarks/e2e/run.py --workload paper --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --json OUT.json --check
    python3 benchmarks/e2e/run.py --repeat-check       # run twice, compare medians
    python3 benchmarks/e2e/run.py --quick              # self-test scale

Workloads run round-robin, one op at a time (a closed loop with one
client).  ``--trace 1`` adds one traced op per workload after the timed
ops and reports the per-layer metrics instead of the end-to-end ones.
See README.md for the workloads, metrics, bounds and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OP_SCRIPT = HERE / "op.py"
SPEC_FILE = ROOT / "BENCHMARK.json"
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("paper", "paper-warm", "trace-sweep", "campaign")
#: Workloads whose inputs are the paper's fixed ones: their digest is
#: the reference at every seed.
SEED_FREE = ("paper", "paper-warm")
REFERENCE_SEED = 2017
OP_TIMEOUT_S = 120.0
#: Fewest rounds a ``--seconds`` run makes, so every median has samples.
MIN_ROUNDS = 3


class OpSample:
    """The outcome of one op: its timings, or the reason it failed."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.error: Optional[str] = None
        self.digest: Optional[str] = None
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.layer_self_s: Dict[str, float] = {}
        self.knobs: Dict[str, str] = {}

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> dict:
        return {
            "error": self.error,
            "digest": self.digest,
            "metrics": self.metrics,
        }


def _op_env(workdir: Path) -> Dict[str, str]:
    """The child environment: no ``REPRO_*`` knob leaks into an op.

    CI jobs export knobs such as ``REPRO_REPLAY`` or ``REPRO_ANALYSIS``;
    inherited, they would silently select another code path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_OBS_DIR"] = str(workdir / "obs")
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _await_group_exit(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the op's group (pool workers) is left."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_op(
    workload: str,
    seed: int,
    workdir: Path,
    quick: bool,
    trace: bool = False,
    cache_dir: Optional[Path] = None,
) -> OpSample:
    """Run one op in a fresh child process and time it from outside."""
    sample = OpSample(workload)
    op_dir = Path(tempfile.mkdtemp(dir=workdir, prefix=f"{workload}-"))
    out = op_dir / "result.json"
    argv = [
        sys.executable, str(OP_SCRIPT),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(op_dir),
        "--out", str(out),
    ]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if quick:
        argv.append("--quick")
    if trace:
        argv.append("--trace")
    timed_out = threading.Event()
    try:
        with open(op_dir / "stderr.txt", "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=_op_env(workdir),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                start_new_session=True,
            )

            def expire() -> None:
                timed_out.set()
                _kill_group(proc.pid)

            timer = threading.Timer(OP_TIMEOUT_S, expire)
            timer.start()
            try:
                # wait4 reports the child's CPU time and peak RSS including
                # every descendant it reaped (the campaign's pool workers).
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            _kill_group(proc.pid)
            _await_group_exit(proc.pid)
        if timed_out.is_set():
            sample.error = f"timed out after {OP_TIMEOUT_S:.0f} s"
        elif proc.returncode != 0:
            tail = (op_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            sample.error = f"exit code {proc.returncode}:\n{tail}"
        else:
            result = json.loads(out.read_text())
            setup_s = result["setup_end"] - start
            op_s = result["op_end"] - result["setup_end"]
            sample.metrics = {
                "setup_s": setup_s,
                "op_s": op_s,
                "command_s": setup_s + op_s,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0,
            }
            sample.digest = result["digest"]
            sample.knobs = result["knobs"]
            sample.layers = result.get("layers", {})
            sample.layer_self_s = result.get("layer_self_s", {})
            if result["errors"]:
                sample.error = "; ".join(result["errors"])
    finally:
        shutil.rmtree(op_dir, ignore_errors=True)
    return sample


def reference_key(workload: str, quick: bool) -> str:
    """The ``reference.json`` entry a workload's digest is checked against."""
    if workload in SEED_FREE:
        return "paper"
    return f"{workload} --quick" if quick else workload


class DigestCheck:
    """Counts a wrong output digest as a failed op.

    At the reference seed every digest must equal the stored reference;
    at any other seed all ops of a workload must agree.  The paper
    workloads use the paper's fixed inputs, so they always check
    against the reference, cold and warm alike.
    """

    def __init__(self, reference: Dict[str, str], seed: int, quick: bool) -> None:
        self.reference = reference
        self.seed = seed
        self.quick = quick
        self.seen: Dict[str, str] = {}

    def __call__(self, sample: OpSample) -> OpSample:
        if not sample.ok:
            return sample
        key = reference_key(sample.workload, self.quick)
        if sample.workload in SEED_FREE or self.seed == REFERENCE_SEED:
            want = self.reference[key]
        else:
            want = self.seen.setdefault(key, sample.digest)
        if sample.digest != want:
            sample.error = f"digest {sample.digest} != expected {want}"
        return sample


class WorkloadRun:
    """Every op one workload ran in one suite run."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.timed: List[OpSample] = []
        self.untimed: List[OpSample] = []
        self.traced: Optional[OpSample] = None

    def all_ops(self) -> List[OpSample]:
        extra = [self.traced] if self.traced is not None else []
        return self.untimed + self.timed + extra

    @property
    def n_ops(self) -> int:
        return sum(1 for sample in self.timed if sample.ok)

    @property
    def attempted(self) -> int:
        return len(self.all_ops())

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.all_ops() if not sample.ok)

    def end_to_end(self) -> Optional[Dict[str, float]]:
        """Medians over the successful timed ops (``None`` if there are none)."""
        ok = [sample for sample in self.timed if sample.ok]
        if not ok:
            return None

        def median(key: str) -> float:
            return statistics.median(sample.metrics[key] for sample in ok)

        return {
            "setup_s": median("setup_s"),
            "op_p50_s": median("op_s"),
            "command_p50_s": median("command_s"),
            "cpu_s": median("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
        }

    def per_layer(self) -> Optional[Dict[str, float]]:
        """The traced op's layer metrics plus its tracing overhead."""
        e2e = self.end_to_end()
        if self.traced is None or not self.traced.ok or e2e is None:
            return None
        metrics = dict(self.traced.layers)
        metrics["trace_overhead"] = metrics["traced_op_s"] / e2e["op_p50_s"]
        return metrics

    def to_dict(self) -> dict:
        return {
            "n_ops": self.n_ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": [s.error for s in self.all_ops() if not s.ok],
            "end_to_end": self.end_to_end(),
            "per_layer": self.per_layer(),
            "layer_self_s": self.traced.layer_self_s if self.traced else None,
            "samples": [sample.to_dict() for sample in self.timed],
        }


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _describe(sample: OpSample, label: str) -> str:
    if not sample.ok:
        return f"[e2e] {label}: FAILED {sample.error}"
    m = sample.metrics
    return (
        f"[e2e] {label}: setup {m['setup_s']:.3f} s + op {m['op_s']:.3f} s, "
        f"cpu {m['cpu_s']:.2f} s, rss {m['peak_rss_mb']:.0f} MB"
    )


def measure(
    workloads: List[str],
    seed: int,
    quick: bool,
    trace: bool,
    reference: Dict[str, str],
    ops: Optional[int],
    seconds: Optional[float],
) -> Dict[str, WorkloadRun]:
    """One suite run: round-robin timed ops, then one traced op each.

    With ``ops`` every workload runs exactly that many timed ops; with
    ``seconds`` rounds continue while the next one should still end
    within the budget (at least ``MIN_ROUNDS``).
    """
    base = ROOT / ".bench_e2e"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base, prefix="run-"))
    (workdir / "tmp").mkdir()
    check = DigestCheck(reference, seed, quick)
    runs = {name: WorkloadRun(name) for name in workloads}
    try:
        started = time.perf_counter()
        warm_cache = workdir / "warm-cache"
        if "paper-warm" in runs:
            # The untimed priming op fills the disk cache the warm ops read.
            priming = check(run_op("paper", seed, workdir, quick, cache_dir=warm_cache))
            runs["paper-warm"].untimed.append(priming)
            _log(_describe(priming, "paper-warm priming"))

        def cache_for(name: str) -> Optional[Path]:
            return warm_cache if name == "paper-warm" else None

        rounds = 0
        rounds_started = time.perf_counter()
        while True:
            now = time.perf_counter()
            if ops is not None and rounds >= ops:
                break
            if (
                seconds is not None
                and rounds >= MIN_ROUNDS
                and now - started + (now - rounds_started) / rounds > seconds
            ):
                break
            for name, run in runs.items():
                sample = check(
                    run_op(name, seed, workdir, quick, cache_dir=cache_for(name))
                )
                run.timed.append(sample)
                _log(_describe(sample, f"{name} op {len(run.timed)}"))
            rounds += 1
        if trace:
            for name, run in runs.items():
                run.traced = check(
                    run_op(name, seed, workdir, quick, trace=True,
                           cache_dir=cache_for(name))
                )
                _log(_describe(run.traced, f"{name} traced op"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return runs


def _git_sha() -> Optional[str]:
    """HEAD of the measured checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(runs: Dict[str, WorkloadRun]) -> dict:
    """Host, interpreter and the engine knobs the ops resolved."""
    knobs = next(
        (s.knobs for run in runs.values() for s in run.all_ops() if s.knobs), {}
    )
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": knobs.get("numpy"),
        "knobs": {k: v for k, v in knobs.items() if k != "numpy"},
    }


def _report(
    runs: Dict[str, WorkloadRun], spec: dict, trace: bool
) -> Dict[str, Dict[str, float]]:
    """Print every metric by name with its unit.

    Returns the reported metrics of each workload that had a successful
    op to measure them on.
    """
    reported: Dict[str, Dict[str, float]] = {}
    for name, run in runs.items():
        e2e = run.end_to_end()
        layers = run.per_layer() if trace else None
        print(
            f"{name}: n_ops={run.n_ops} attempted={run.attempted} "
            f"failed={run.failed}"
        )
        if e2e is None or (trace and layers is None):
            print(f"  no successful {'traced ' if trace else ''}op to measure")
            continue
        values = {**e2e, **(layers or {})}
        for metric in spec["end_to_end"] + (spec["per_layer"] if trace else []):
            value = values[metric["name"]]
            print(f"  {metric['name']:<28} {value:>14.6f} {metric['unit']}")
        reported[name] = layers if trace else e2e
    return reported


def _compare(first: Dict[str, WorkloadRun], second: Dict[str, WorkloadRun],
             spec: dict) -> bool:
    """Print the two runs' medians side by side; True when all agree."""
    agree = True
    print("repeat check: |second - first| / first against each metric's bound")
    for name in first:
        a, b = first[name].end_to_end(), second[name].end_to_end()
        for metric in spec["end_to_end"]:
            if a is None or b is None:
                agree = False
                continue
            key, bound = metric["name"], metric["bound"]
            change = abs(b[key] - a[key]) / a[key]
            verdict = "ok" if change <= bound else "DISAGREE"
            agree = agree and change <= bound
            print(
                f"  {name:<12} {key:<16} {a[key]:>12.4f} {b[key]:>12.4f} "
                f"{100 * change:>6.2f}% (bound {100 * bound:.0f}%) {verdict}"
            )
    return agree


def main(argv: Optional[List[str]] = None) -> int:
    cli = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    cli.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="workload to run (repeatable; default: all)")
    cli.add_argument("--seed", type=int, default=REFERENCE_SEED)
    stop = cli.add_mutually_exclusive_group()
    stop.add_argument("--ops", type=int, default=None,
                      help="timed ops per workload (default 10, 1 with --quick)")
    stop.add_argument("--seconds", type=float, default=None,
                      help="measure for about this long instead of --ops")
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: add a traced op and report per-layer metrics")
    cli.add_argument("--quick", action="store_true",
                     help="self-test scale: 16 campaign machines, 2 sweep workloads")
    cli.add_argument("--json", dest="json_out", default=None,
                     help="write the full record (samples, layers, host) here")
    cli.add_argument("--check", action="store_true",
                     help="exit non-zero if any op failed")
    cli.add_argument("--repeat-check", action="store_true",
                     help="run the suite twice and compare the medians")
    cli.add_argument("--reference", default=str(REFERENCE_FILE),
                     help="reference digests (JSON) for the reference seed")
    args = cli.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _log(f"error: no program to measure at {ROOT / 'src' / 'repro'}")
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    reference = json.loads(Path(args.reference).read_text())["digests"]
    workloads = list(dict.fromkeys(args.workload or WORKLOADS))
    ops = args.ops
    if ops is None and args.seconds is None:
        ops = 1 if args.quick else 10
    trace = bool(args.trace)

    suites = [
        measure(workloads, args.seed, args.quick, trace, reference, ops, args.seconds)
        for _ in range(2 if args.repeat_check else 1)
    ]
    complete = True
    for runs in suites:
        reported = _report(runs, spec, trace)
        complete = complete and len(reported) == len(runs)
    agree = _compare(suites[0], suites[1], spec) if args.repeat_check else True
    if args.json_out:
        record = {
            "environment": environment(suites[-1]),
            "seed": args.seed,
            "quick": args.quick,
            "runs": [
                {name: run.to_dict() for name, run in suite.items()}
                for suite in suites
            ],
        }
        Path(args.json_out).write_text(json.dumps(record, indent=2, sort_keys=True))
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for name, values in reported.items():
        prefix = "" if len(workloads) == 1 else f"{name}:"
        for metric in listed:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]],
                "unit": metric["unit"],
            }
    failed = sum(run.failed for suite in suites for run in suite.values())
    attempted = sum(run.attempted for suite in suites for run in suite.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    if not complete or ((args.check or args.repeat_check) and failed):
        return 1
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
