"""One end-to-end benchmark operation, run in a fresh interpreter.

``run.py`` starts this script once per op, so every op pays what a
user's ``repro <command>`` pays: interpreter start, ``import repro``,
the Table I calibration behind ``all_workloads()`` and every first-call
effect, with no in-process cache carried over from an earlier op.

    python benchmarks/e2e/op.py --workload paper --seed 2017 \\
        --workdir DIR --out RESULT.json [--cache-dir DIR] [--quick] [--trace]

The op writes ``RESULT.json``: the ``time.perf_counter()`` stamps at the
end of set-up and at the end of the op (CLOCK_MONOTONIC, so the parent
can subtract its own spawn stamp), the output digest, the resolved
engine knobs and, with ``--trace``, the per-layer metrics of the op.
Any exception propagates, so a failed op exits non-zero.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import time
from pathlib import Path
from typing import Callable, List, Tuple

#: The six-workload campaign mix of ``benchmarks/bench_campaign.py``.
CAMPAIGN_WORKLOADS = (
    "505.mcf_r",
    "500.perlbench_r",
    "525.x264_r",
    "519.lbm_r",
    "557.xz_r",
    "502.gcc_r",
)
CAMPAIGN_INSTRUCTIONS = 20_000

#: What an op returns: called after the clock stops, it gives the output
#: digest and any integrity errors.
Verify = Callable[[], Tuple[str, List[str]]]


def _paper(args: argparse.Namespace) -> Verify:
    from repro.perf.profiler import Profiler
    from repro.reporting import report

    profiler = Profiler(cache_dir=args.cache_dir)
    path = report.generate_report(Path(args.workdir) / "REPORT.md", profiler=profiler)
    return lambda: (hashlib.sha256(path.read_bytes()).hexdigest(), [])


def _trace_sweep(args: argparse.Namespace) -> Verify:
    from repro.perf.dataset import build_feature_matrix
    from repro.perf.profiler import Profiler
    from repro.uarch.machine import PAPER_MACHINE_NAMES
    from repro.workloads.spec import Suite, workloads_in_suite

    specs = workloads_in_suite(Suite.SPEC2017_RATE_INT)
    matrix = build_feature_matrix(
        specs[:2] if args.quick else specs,
        PAPER_MACHINE_NAMES,
        profiler=Profiler(engine="trace", seed=args.seed),
        jobs=1,
    )
    return lambda: (matrix.digest(), [])


def _campaign(args: argparse.Namespace) -> Verify:
    from repro.campaign import CampaignConfig, CampaignRunner, CampaignStore
    from repro.perf.profiler import Profiler

    directory = Path(args.workdir) / "campaign"
    config = CampaignConfig(
        machines=16 if args.quick else 256,
        workloads=CAMPAIGN_WORKLOADS,
        seed=args.seed,
        trace_instructions=CAMPAIGN_INSTRUCTIONS,
    )
    profiler = Profiler(
        engine="trace",
        trace_instructions=CAMPAIGN_INSTRUCTIONS,
        seed=args.seed,
        cache_dir=Path(args.workdir) / "cache",
    )
    summary = CampaignRunner(
        directory, config, profiler=profiler, jobs=2, backend="process"
    ).run()

    def verify() -> Tuple[str, List[str]]:
        damaged = CampaignStore.open(directory / "store").verify()
        errors = [f"store column {metric} fails verify()" for metric in damaged]
        return summary["digest"], errors

    return verify


OPS = {
    "paper": _paper,
    "paper-warm": _paper,
    "trace-sweep": _trace_sweep,
    "campaign": _campaign,
}


def _install_wrappers(obs_span) -> None:
    """Time public entry points that record no span of their own.

    Installed only in a traced op.  Fork-started pool workers inherit
    the patched attributes, and their spans ride back to the parent
    with the executor's own worker spans.
    """
    from repro.campaign.store import CampaignStore
    from repro.core.feature_store import FeatureMatrixStore
    from repro.perf import trace_cache
    from repro.perf.diskcache import DiskCache
    from repro.reporting import report

    targets = (
        (DiskCache, "load", "diskcache.load"),
        (DiskCache, "store", "diskcache.store"),
        (CampaignStore, "write_rows", "campaign_store.write_rows"),
        (FeatureMatrixStore, "append_machine_block",
         "feature_store.append_machine_block"),
        (report, "generate_report", "reporting.generate_report"),
        (trace_cache, "synthesize_trace", "synthesis.synthesize_trace"),
    )
    for owner, attribute, name in targets:
        setattr(owner, attribute, _timed(getattr(owner, attribute), name, obs_span))


def _timed(original, name: str, obs_span):
    @functools.wraps(original)
    def timed(*args, **kwargs):
        with obs_span(name):
            return original(*args, **kwargs)

    return timed


def _knobs() -> dict:
    """The engine and analysis settings the op actually resolved."""
    import numpy

    from repro.perf.trace_cache import resolve_seed_scope
    from repro.stats.incremental import resolve_analysis_mode
    from repro.uarch.fused import resolve_replay
    from repro.uarch.kernels import resolve_trace_kernel

    return {
        "trace_kernel": resolve_trace_kernel(None),
        "seed_scope": resolve_seed_scope(None),
        "replay": resolve_replay(None),
        "analysis": resolve_analysis_mode(None),
        "numpy": numpy.__version__,
    }


def main() -> None:
    cli = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    cli.add_argument("--workload", required=True, choices=sorted(OPS))
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--workdir", required=True)
    cli.add_argument("--out", required=True)
    cli.add_argument("--cache-dir", default=None)
    cli.add_argument("--quick", action="store_true")
    cli.add_argument("--trace", action="store_true")
    args = cli.parse_args()

    import repro  # noqa: F401  (set-up: the import itself is measured)

    if args.trace:
        from repro import obs

        obs.enable()
        _install_wrappers(obs.span)
    from repro.workloads.spec import all_workloads

    all_workloads()
    setup_end = time.perf_counter()
    if args.trace:
        setup_counters = obs.snapshot()["counters"]
    verify = OPS[args.workload](args)
    op_end = time.perf_counter()

    result = {"setup_end": setup_end, "op_end": op_end}
    if args.trace:
        import span_layers

        obs.disable()
        roots = obs.finished_roots()
        after = obs.snapshot()["counters"]
        op_counters = {
            name: value - setup_counters.get(name, 0.0)
            for name, value in after.items()
        }
        result["layers"] = span_layers.layer_metrics(
            roots, setup_end, op_end, setup_counters, op_counters
        )
        result["layer_self_s"] = span_layers.layer_self_times(
            [root for root in roots if root.wall_start >= setup_end]
        )
    result["digest"], result["errors"] = verify()
    result["knobs"] = _knobs()
    Path(args.out).write_text(json.dumps(result, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
