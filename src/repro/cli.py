"""Command-line interface.

Exposes the paper's analyses as ``repro`` subcommands::

    repro list                          # workloads and machines
    repro profile 505.mcf_r skylake-i7-6700
    repro subset rate-int -k 3 --validate
    repro dendrogram speed-fp
    repro inputsets --category int
    repro rate-speed
    repro balance
    repro power
    repro casestudies
    repro sensitivity l1_dtlb
    repro dataset --suite rate-int --jobs 4 --engine trace
    repro export --suite rate-int --out matrix.csv
    repro obs history                   # the run-history ledger
    repro obs diff -2 -1
    repro obs check                     # regression sentinel (CI)
    repro obs flame --out flame.html    # flamegraph of a --profile run
    repro obs top -n 10                 # hottest spans and frames
    repro campaign run camp/ --machines 1000 --jobs 8
    repro campaign resume camp/ --jobs 8
    repro campaign status camp/
    repro campaign fold camp/

Every subcommand accepts ``--obs {off,summary,json}``,
``--trace-out FILE`` (Chrome-trace export), ``--metrics-out FILE``
(OpenMetrics text exposition) and ``--profile {off,cpu,mem,all}``
(sampling resource profiler; never changes results).  Every ``--obs``
or ``--profile`` run is appended to the run-history ledger, which
``repro obs-report`` pretty-prints the newest manifest of (``--json``
for scripting), ``repro obs history`` lists, ``repro obs diff``
compares pairwise, ``repro obs check`` scores against a median+MAD
baseline (exiting non-zero on a statistical regression), ``repro obs
flame`` renders as a flamegraph and ``repro obs top`` summarizes as
hottest-spans/frames tables.  A ledger verb that left damaged run
documents out prints a ``warning:`` line to stderr.

The profiling subcommands (``profile``, ``dataset``, ``export``)
additionally accept ``--jobs N`` (sweep on N worker processes) and
``--cache-dir`` / ``--no-disk-cache`` / ``--cache-clear``
(persistent result cache; ``$REPRO_CACHE_DIR`` supplies a default
root).  ``report`` accepts the three cache flags, so a warm report
loads every profile from disk.  ``campaign run`` and ``campaign
resume`` accept ``--jobs N`` only: a campaign keeps its results in its
own store, never in the disk cache.

``repro campaign`` drives design-space sweeps: ``run`` generates a
seeded machine population around the paper anchors and profiles it in
checkpointed shards into a columnar store, ``resume`` continues an
interrupted campaign skipping completed shards (byte-identical to an
uninterrupted run), ``status`` inventories the checkpoints, ``fold``
fits PCA + k-means once over every machine landed so far (one exact
fit, so a repeat fold writes the same ``analysis.json``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional, Sequence

from repro.errors import ReproError
from repro.perf.profiler import ENGINES, Profiler
from repro.workloads.spec import Suite

__all__ = ["main", "build_parser"]

SUITE_ALIASES = {
    "speed-int": Suite.SPEC2017_SPEED_INT,
    "rate-int": Suite.SPEC2017_RATE_INT,
    "speed-fp": Suite.SPEC2017_SPEED_FP,
    "rate-fp": Suite.SPEC2017_RATE_FP,
    "cpu2006-int": Suite.SPEC2006_INT,
    "cpu2006-fp": Suite.SPEC2006_FP,
    "eda": Suite.SPEC2000_EDA,
    "database": Suite.EMERGING_DATABASE,
    "graph": Suite.EMERGING_GRAPH,
}

#: The four CPU2017 sub-suites that have Table V subsets, spelled out
#: explicitly (deriving them by slicing sorted aliases was fragile).
SPEC2017_SUBSUITE_ALIASES = ("rate-int", "rate-fp", "speed-int", "speed-fp")

#: Default campaign workload mix: the fused-replay benchmark's six
#: workloads, spanning the memory/branch/compute behaviour spectrum.
CAMPAIGN_WORKLOADS = (
    "505.mcf_r",
    "500.perlbench_r",
    "525.x264_r",
    "519.lbm_r",
    "557.xz_r",
    "502.gcc_r",
)

_OBS_MODES = ("off", "summary", "json")

# Mirrors repro.obs.profiling.PROFILE_MODES without importing the obs
# stack at parser-build time.
_PROFILE_MODES = ("off", "cpu", "mem", "all")


def _obs_options() -> argparse.ArgumentParser:
    """Shared ``--obs`` / ``--trace-out`` options for every subcommand."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--obs",
        choices=_OBS_MODES,
        default="off",
        help="instrumentation output: off (default), summary, or json",
    )
    group.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a chrome://tracing / Perfetto trace file",
    )
    group.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics snapshot in OpenMetrics text format",
    )
    group.add_argument(
        "--profile",
        choices=_PROFILE_MODES,
        default="off",
        help=(
            "attach the sampling resource profiler: cpu (stack "
            "samples), mem (allocation peaks), all, or off (default); "
            "never changes results"
        ),
    )
    return common


def _cache_options() -> argparse.ArgumentParser:
    """Shared disk-cache options for every command that profiles."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("disk cache")
    group.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "persistent profile-result cache root "
            "(default: $REPRO_CACHE_DIR, else no disk cache)"
        ),
    )
    group.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="never read or write the on-disk cache",
    )
    group.add_argument(
        "--cache-clear",
        action="store_true",
        help="evict every on-disk cache entry before running",
    )
    return common


def _exec_options() -> argparse.ArgumentParser:
    """Shared parallel-sweep options."""
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("execution")
    group.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help=(
            "profile (workload, machine) pairs on N worker processes "
            "(default 1: in-process)"
        ),
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction toolkit for 'Wait of a Decade: Did SPEC CPU 2017 "
            "Broaden the Performance Horizon?' (HPCA 2018)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    obs_options = [_obs_options()]
    cache_options = obs_options + [_cache_options()]
    exec_options = cache_options + [_exec_options()]
    campaign_exec_options = obs_options + [_exec_options()]

    def add_parser(name: str, parallel: bool = False, **kwargs):
        parents = exec_options if parallel else obs_options
        return sub.add_parser(name, parents=parents, **kwargs)

    list_parser = add_parser("list", help="list workloads and machines")
    list_parser.add_argument("--suite", choices=sorted(SUITE_ALIASES))
    list_parser.add_argument(
        "--machines", action="store_true", help="list machines instead"
    )

    profile_parser = add_parser(
        "profile", parallel=True, help="profile one workload"
    )
    profile_parser.add_argument("workload")
    profile_parser.add_argument("machine", nargs="?", default="skylake-i7-6700")
    profile_parser.add_argument(
        "--engine", choices=ENGINES, default="analytic"
    )
    profile_parser.add_argument("--json", action="store_true")

    subset_parser = add_parser("subset", help="select a benchmark subset")
    subset_parser.add_argument("suite", choices=SPEC2017_SUBSUITE_ALIASES)
    subset_parser.add_argument("-k", type=int, default=3)
    subset_parser.add_argument("--validate", action="store_true")

    dendro_parser = add_parser("dendrogram", help="sub-suite dendrogram")
    dendro_parser.add_argument("suite", choices=sorted(SUITE_ALIASES))

    inputs_parser = add_parser(
        "inputsets", help="representative input sets (Table VII)"
    )
    inputs_parser.add_argument(
        "--category", choices=("int", "fp"), default="int"
    )

    add_parser("rate-speed", help="rate vs speed comparison (Sec IV-D)")
    add_parser("balance", help="CPU2017 vs CPU2006 coverage (Fig 11)")
    add_parser("power", help="power-spectrum comparison (Fig 12)")
    add_parser("casestudies", help="EDA/database/graph case studies (Fig 13)")

    sensitivity_parser = add_parser(
        "sensitivity", help="cross-machine sensitivity (Table IX)"
    )
    sensitivity_parser.add_argument(
        "characteristic",
        choices=("branch_prediction", "l1_dcache", "l1_dtlb"),
    )

    report_parser = sub.add_parser(
        "report",
        parents=cache_options,
        help="run the full reproduction, write a Markdown report",
    )
    report_parser.add_argument("--out", default="REPORT.md")

    dataset_parser = add_parser(
        "dataset",
        parallel=True,
        help="build a feature matrix and print its shape and digest",
    )
    dataset_parser.add_argument(
        "--suite", choices=sorted(SUITE_ALIASES), default="rate-int"
    )
    dataset_parser.add_argument(
        "--engine", choices=ENGINES, default="analytic"
    )
    dataset_parser.add_argument(
        "--out", default=None, help="also write the matrix as CSV"
    )

    export_parser = add_parser(
        "export", parallel=True, help="export a feature matrix"
    )
    export_parser.add_argument("--suite", choices=sorted(SUITE_ALIASES),
                               default="rate-int")
    export_parser.add_argument("--out", required=True)

    campaign_parser = sub.add_parser(
        "campaign",
        help="design-space campaigns: run, resume, status, fold",
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    def add_campaign_parser(name: str, parallel: bool = False, **kwargs):
        parents = campaign_exec_options if parallel else obs_options
        verb = campaign_sub.add_parser(name, parents=parents, **kwargs)
        verb.add_argument("directory", help="campaign directory")
        verb.add_argument(
            "--json", action="store_true", help="emit JSON for scripting"
        )
        return verb

    campaign_run_parser = add_campaign_parser(
        "run", parallel=True,
        help="generate the machine population and profile every shard",
    )
    campaign_run_parser.add_argument(
        "--machines", type=int, default=1000, metavar="N",
        help="machine variants to generate (default: 1000)",
    )
    campaign_run_parser.add_argument(
        "--workloads", default=",".join(CAMPAIGN_WORKLOADS), metavar="LIST",
        help="comma-separated workload names (default: the six-workload "
             "campaign mix)",
    )
    campaign_run_parser.add_argument(
        "--seed", type=int, default=2017, metavar="N",
        help="generator / profiling seed (default: 2017)",
    )
    campaign_run_parser.add_argument(
        "--engine", choices=ENGINES, default="trace",
        help="profiling engine (default: trace)",
    )
    campaign_run_parser.add_argument(
        "--instructions", type=int, default=200_000, metavar="N",
        help="trace length per workload (default: 200000)",
    )
    campaign_run_parser.add_argument(
        "--shard-machines", type=int, default=64, metavar="N",
        dest="shard_machines",
        help="machines per checkpointed shard (default: 64)",
    )
    campaign_run_parser.add_argument(
        "--clusters", type=int, default=7, metavar="K",
        help="k for the fold stage's k-means (default: 7)",
    )
    campaign_run_parser.add_argument(
        "--ledger", action="store_true",
        help="record each completed shard in the run-history ledger",
    )

    campaign_resume_parser = add_campaign_parser(
        "resume", parallel=True,
        help="continue an interrupted campaign, skipping completed shards",
    )
    campaign_resume_parser.add_argument(
        "--ledger", action="store_true",
        help="record each completed shard in the run-history ledger",
    )

    add_campaign_parser(
        "status", help="checkpoint inventory: shards done, rows landed"
    )
    add_campaign_parser(
        "fold",
        help="refit PCA + k-means over every machine landed so far",
    )

    obs_report_parser = add_parser(
        "obs-report", help="pretty-print the newest recorded run's manifest"
    )
    obs_report_parser.add_argument(
        "--dir", default=None,
        help="obs directory (default: $REPRO_OBS_DIR or .repro-obs)",
    )
    obs_report_parser.add_argument(
        "--json", action="store_true",
        help="emit the raw manifest JSON for scripting",
    )

    obs_parser = sub.add_parser(
        "obs", help="run-history ledger: history, diff, check, flame, top"
    )
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)

    def add_obs_parser(name: str, **kwargs):
        verb = obs_sub.add_parser(name, **kwargs)
        verb.add_argument(
            "--dir", default=None,
            help="obs directory (default: $REPRO_OBS_DIR or .repro-obs)",
        )
        verb.add_argument(
            "--json", action="store_true", help="emit JSON for scripting"
        )
        return verb

    history_parser = add_obs_parser(
        "history", help="list the recorded runs, oldest first"
    )
    history_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the newest N runs",
    )
    history_parser.add_argument(
        "--prune", type=int, default=None, metavar="KEEP",
        help="evict all but the newest KEEP runs first",
    )

    diff_parser = add_obs_parser(
        "diff", help="stage/counter deltas between two recorded runs"
    )
    diff_parser.add_argument(
        "first", help="run reference: id, id prefix, seq, or -N offset"
    )
    diff_parser.add_argument("second", help="run reference (e.g. -1)")

    check_parser = add_obs_parser(
        "check",
        help="score a run against its baseline; exit 1 on regression",
    )
    check_parser.add_argument(
        "--run", default="latest", metavar="REF",
        help="run to check (default: the most recent)",
    )
    check_parser.add_argument(
        "--window", type=int, default=None, metavar="N",
        help="baseline over the last N matching runs (default: 20)",
    )
    check_parser.add_argument(
        "--z-threshold", type=float, default=None, metavar="Z",
        help="robust z-score beyond which a deviation fails (default: 3)",
    )
    check_parser.add_argument(
        "--verbose", action="store_true",
        help="also list series that are within tolerance",
    )

    flame_parser = add_obs_parser(
        "flame",
        help="render a recorded run's sampled stacks as a flamegraph",
    )
    flame_parser.add_argument(
        "run", nargs="?", default="latest",
        help="run reference: id, id prefix, seq, -N offset, or latest",
    )
    flame_parser.add_argument(
        "--out", default="flame.html", metavar="FILE",
        help="flamegraph HTML output path (default: flame.html)",
    )
    flame_parser.add_argument(
        "--collapsed", default=None, metavar="FILE",
        help="also write the samples in collapsed-stack text format",
    )

    top_parser = add_obs_parser(
        "top",
        help="the hottest spans and frames of a recorded run",
    )
    top_parser.add_argument(
        "run", nargs="?", default="latest",
        help="run reference: id, id prefix, seq, -N offset, or latest",
    )
    top_parser.add_argument(
        "-n", type=int, default=10, metavar="N",
        help="rows per table (default: 10)",
    )
    return parser


def _suite_names(alias: str) -> List[str]:
    from repro.workloads.spec import workloads_in_suite

    return [spec.name for spec in workloads_in_suite(SUITE_ALIASES[alias])]


def _cmd_list(args: argparse.Namespace) -> int:
    if args.machines:
        from repro.uarch.machine import all_machines

        for machine in all_machines():
            print(machine.summary())
        return 0
    from repro.workloads.spec import all_workloads, workloads_in_suite

    if args.suite:
        specs = workloads_in_suite(SUITE_ALIASES[args.suite])
    else:
        specs = all_workloads()
    for spec in specs:
        print(f"{spec.name:20s} {spec.suite.value:14s} {spec.domain}")
    return 0


def _make_profiler(args: argparse.Namespace) -> Profiler:
    """A :class:`Profiler` for ``--engine`` (else analytic).

    Default trace length and seed.  The shared cache flags pick the
    disk cache: ``--cache-dir``, else ``$REPRO_CACHE_DIR``;
    ``--no-disk-cache`` turns it off and ``--cache-clear`` empties it
    before the run.
    """
    from repro.perf.diskcache import default_cache_dir

    if args.no_disk_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir or default_cache_dir()
    profiler = Profiler(
        getattr(args, "engine", "analytic"), cache_dir=cache_dir
    )
    if args.cache_clear and profiler.disk_cache is not None:
        removed = profiler.disk_cache.clear()
        print(f"cleared {removed} cached profiles from "
              f"{profiler.disk_cache.root}")
    return profiler


def _cmd_profile(args: argparse.Namespace) -> int:
    profiler = _make_profiler(args)
    report = profiler.profile(args.workload, args.machine)
    if args.json:
        import json

        from repro.reporting.export import report_to_dict

        data = report_to_dict(report)
        data["cache_info"] = profiler.cache_info()._asdict()
        print(json.dumps(data, indent=2, sort_keys=True))
        return 0
    print(f"{report.workload} on {report.machine} ({args.engine} engine)")
    for metric, value in report.metrics.items():
        print(f"  {metric.value:18s} {value:12.3f}")
    print("CPI stack:")
    for component, value in report.cpi_stack.as_dict().items():
        print(f"  {component:18s} {value:12.4f}")
    return 0


def _cmd_subset(args: argparse.Namespace) -> int:
    from repro.core.subsetting import subset_suite

    suite = SUITE_ALIASES[args.suite]
    profiler = Profiler()
    result = subset_suite(suite, k=args.k, profiler=profiler)
    print(f"{suite.value}: {args.k}-benchmark subset")
    for representative, cluster in zip(result.subset, result.clusters):
        print(f"  {representative:20s} <- {', '.join(cluster)}")
    print(f"simulation-time reduction: {result.time_reduction:.1f}x")
    if args.validate:
        from repro.core.validation import validate_subset

        weights = [len(c) for c in result.clusters]
        validation = validate_subset(
            suite, result.subset, weights=weights, profiler=profiler
        )
        print(f"validation: mean error {validation.mean_error:.1%}, "
              f"max {validation.max_error:.1%} over "
              f"{len(validation.systems)} systems")
    return 0


def _cmd_dendrogram(args: argparse.Namespace) -> int:
    from repro.core.similarity import analyze_similarity

    result = analyze_similarity(_suite_names(args.suite))
    print(f"{SUITE_ALIASES[args.suite].value}: {result.n_components} PCs, "
          f"{result.variance_covered:.0%} variance")
    print(result.dendrogram().text)
    print(f"most distinct: {result.tree.most_distinct_leaf()}")
    return 0


def _cmd_inputsets(args: argparse.Namespace) -> int:
    from repro.core.inputsets import analyze_input_sets

    suites = (
        (Suite.SPEC2017_RATE_INT, Suite.SPEC2017_SPEED_INT)
        if args.category == "int"
        else (Suite.SPEC2017_RATE_FP, Suite.SPEC2017_SPEED_FP)
    )
    analysis = analyze_input_sets(suites=suites)
    print(f"representative input sets ({args.category.upper()}):")
    for name, index in sorted(analysis.representative.items()):
        print(f"  {name:20s} input set {index}")
    return 0


def _cmd_rate_speed(_args: argparse.Namespace) -> int:
    from repro.core.rate_speed import compare_rate_speed

    comparison = compare_rate_speed()
    print("rate vs speed twin distances (descending):")
    for pair in comparison.ranked("all"):
        print(f"  {pair.rate:20s} / {pair.speed:20s} {pair.distance:7.2f}")
    return 0


def _cmd_balance(_args: argparse.Namespace) -> int:
    from repro.core.balance import analyze_balance

    report = analyze_balance()
    for plane in (report.plane_12, report.plane_34):
        print(f"PC{plane.axes[0]}-PC{plane.axes[1]}: "
              f"area 2017/2006 = {plane.expansion:.2f}, "
              f"{plane.fraction_2017_outside_2006:.0%} of 2017 outside 2006")
    print(f"uncovered removed CPU2006 benchmarks: "
          f"{', '.join(report.uncovered_removed)}")
    return 0


def _cmd_power(_args: argparse.Namespace) -> int:
    from repro.core.power_analysis import analyze_power_spectrum

    spectrum = analyze_power_spectrum()
    print(f"power-space area 2017/2006: {spectrum.expansion:.2f}")
    print(f"core power spread: 2017 {spectrum.core_power_spread_2017:.2f} W, "
          f"2006 {spectrum.core_power_spread_2006:.2f} W")
    return 0


def _cmd_casestudies(_args: argparse.Namespace) -> int:
    from repro.core.casestudies import analyze_case_studies

    report = analyze_case_studies()
    for name, (nearest, distance) in sorted(report.nearest_cpu2017.items()):
        covered = "covered" if report.is_covered(name) else "NOT covered"
        print(f"  {name:10s} nearest {nearest:20s} "
              f"d={distance:6.2f} ({covered})")
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.core.sensitivity import classify_sensitivity

    report = classify_sensitivity(args.characteristic)
    print(f"{args.characteristic} sensitivity (rank spread across "
          f"{len(report.machines)} machines):")
    print(f"  high:   {', '.join(sorted(report.high))}")
    print(f"  medium: {', '.join(sorted(report.medium))}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.report import generate_report

    path = generate_report(args.out, profiler=_make_profiler(args))
    print(f"wrote reproduction report to {path}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.perf.dataset import build_feature_matrix

    profiler = _make_profiler(args)
    matrix = build_feature_matrix(
        _suite_names(args.suite),
        profiler=profiler,
        jobs=args.jobs,
    )
    print(f"{args.suite}: {matrix.n_workloads} x {matrix.n_features} "
          f"feature matrix ({args.engine} engine, jobs={args.jobs})")
    print(f"digest: {matrix.digest()}")
    info = profiler.cache_info()
    print(f"cache: {info.hits} memory hits, {info.disk_hits} disk hits, "
          f"{info.misses} computed")
    if args.out:
        from repro.reporting.export import feature_matrix_to_csv

        path = feature_matrix_to_csv(matrix, args.out)
        print(f"wrote matrix to {path}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.perf.dataset import build_feature_matrix
    from repro.reporting.export import feature_matrix_to_csv

    matrix = build_feature_matrix(
        _suite_names(args.suite),
        profiler=_make_profiler(args),
        jobs=args.jobs,
    )
    path = feature_matrix_to_csv(matrix, args.out)
    print(f"wrote {matrix.n_workloads} x {matrix.n_features} matrix to {path}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import CampaignConfig, CampaignRunner

    verb = args.campaign_command
    if verb == "status":
        status = CampaignRunner(args.directory).status()
        if args.json:
            print(json.dumps(status, indent=2, sort_keys=True))
            return 0
        shards = status["shards"]
        rows = status["rows"]
        print(f"campaign {status['directory']}: {status['machines']} "
              f"machines x {len(status['workloads'])} workloads")
        print(f"  shards done: {shards['done']}/{shards['total']}")
        pending = shards["pending"]
        if pending:
            head = ", ".join(f"{index:04d}" for index in pending[:8])
            more = "" if len(pending) <= 8 else f" (+{len(pending) - 8} more)"
            print(f"  shards pending: {head}{more}")
        print(f"  rows landed: {rows['landed']}/{rows['total']}")
        print(f"  sealed: {status['sealed']}  analyzed: {status['analyzed']}")
        if status["digest"]:
            print(f"  digest: {status['digest']}")
        return 0
    if verb == "fold":
        analysis = CampaignRunner(args.directory).fold()
        if args.json:
            print(json.dumps(analysis, indent=2, sort_keys=True))
            return 0
        print(f"folded {analysis['machines_analyzed']}/"
              f"{analysis['machines_total']} machines "
              f"({analysis['features']} features)")
        print(f"  kaiser components: {analysis['kaiser_components']}")
        for index, members in enumerate(analysis["clusters"]):
            representative = analysis["representatives"][index]
            print(f"  cluster {index}: {len(members)} machines "
                  f"(representative {representative})")
        return 0
    # run / resume
    resume = verb == "resume"
    if resume:
        config = CampaignRunner(args.directory).load_config()
    else:
        config = CampaignConfig(
            machines=args.machines,
            workloads=tuple(
                name.strip()
                for name in args.workloads.split(",")
                if name.strip()
            ),
            seed=args.seed,
            engine=args.engine,
            trace_instructions=args.instructions,
            shard_machines=args.shard_machines,
            clusters=args.clusters,
        )
    runner = CampaignRunner(
        args.directory, config=config, jobs=args.jobs, ledger=args.ledger
    )
    summary = runner.run(resume=resume)
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    shards = summary["shards"]
    print(f"campaign {summary['directory']}: {summary['machines']} "
          f"machines x {len(summary['workloads'])} workloads, "
          f"{summary['rows']} rows")
    print(f"  shards: {shards['computed']} computed, "
          f"{shards['skipped']} skipped of {shards['total']}")
    print(f"  digest: {summary['digest']}")
    print(f"  store: {summary['directory']}/store "
          f"(digest {summary['store_digest'][:16]})")
    analysis = summary["analysis"]
    print(f"  analysis: {analysis['machines_analyzed']} machines, "
          f"{analysis['kaiser_components']} kaiser components, "
          f"{len(analysis['clusters'])} clusters")
    return 0


def _warn_on_ledger_damage(
    verb: Callable[[argparse.Namespace], int], args: argparse.Namespace
) -> int:
    """Run a ledger-reading verb; warn on stderr if it skipped damage."""
    from repro.obs import metrics as obs_metrics

    corrupt = obs_metrics.counter("history.corrupt")
    before = corrupt.value
    try:
        return verb(args)
    finally:
        skipped = corrupt.value - before
        if skipped:
            print(f"warning: left {skipped:g} damaged run document(s) out "
                  f"of the run ledger (history.corrupt)", file=sys.stderr)


def _cmd_obs_report(args: argparse.Namespace) -> int:
    return _warn_on_ledger_damage(_render_newest_run, args)


def _render_newest_run(args: argparse.Namespace) -> int:
    import json

    from repro.obs import history as obs_history
    from repro.obs.manifest import render_manifest

    manifest = obs_history.load_run("latest", args.dir)["manifest"]
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        print(render_manifest(manifest))
    return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    import json

    from repro.obs import history as obs_history

    if args.prune is not None:
        removed = obs_history.prune(args.prune, args.dir)
        print(f"pruned {removed} runs from "
              f"{obs_history.history_dir(args.dir)}")
    runs = obs_history.list_runs(args.dir)
    empty = not runs
    if args.limit is not None:
        # Sliced from the front: runs[-0:] would be every run.
        runs = runs[max(len(runs) - max(args.limit, 0), 0):]
    if args.json:
        print(json.dumps([info.to_dict() for info in runs], indent=2))
        return 0
    if empty:
        print("run history is empty; run a command with --obs first")
        return 0
    for info in runs:
        print(f"{info.id}  {info.command:<12s} key={info.run_key}  "
              f"elapsed {info.elapsed_s * 1e3:9.2f} ms")
    return 0


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    import json

    from repro.obs import baseline as obs_baseline
    from repro.obs import history as obs_history

    first = obs_history.load_run(args.first, args.dir)
    second = obs_history.load_run(args.second, args.dir)
    findings = obs_baseline.diff_manifests(
        first["manifest"], second["manifest"]
    )
    if args.json:
        print(json.dumps(
            {
                "first": first["id"],
                "second": second["id"],
                "findings": [f.to_dict() for f in findings],
            },
            indent=2,
        ))
        return 0
    print(f"diff {first['id']} -> {second['id']}")
    for finding in findings:
        print(f"  {finding.status.upper():<10s} {finding.kind:<8s}"
              f" {finding.name:<30s} {finding.reason}")
    return 0


def _cmd_obs_check(args: argparse.Namespace) -> int:
    import json

    from repro.obs import baseline as obs_baseline
    from repro.obs import history as obs_history

    window = args.window if args.window is not None \
        else obs_baseline.DEFAULT_WINDOW
    z_threshold = args.z_threshold if args.z_threshold is not None \
        else obs_baseline.DEFAULT_Z_THRESHOLD
    runs = obs_history.list_runs(args.dir)
    target_info = obs_history.resolve_run(args.run, runs)
    prior = [
        info for info in runs
        if info.run_key == target_info.run_key
        and info.seq < target_info.seq
    ][-window:]
    if not prior:
        message = (
            f"run {target_info.id} has no prior runs with key "
            f"{target_info.run_key}; nothing to compare — ok"
        )
        print(json.dumps({"ok": True, "note": message})
              if args.json else message)
        return 0
    manifests = [
        obs_history.load_run(info.id, args.dir)["manifest"]
        for info in prior
    ]
    baseline = obs_baseline.build_baseline(manifests, window=window)
    target = obs_history.load_run(target_info.id, args.dir)["manifest"]
    comparison = obs_baseline.compare(
        target, baseline, z_threshold=z_threshold
    )
    if args.json:
        print(json.dumps(
            {"run": target_info.id, **comparison.to_dict()}, indent=2
        ))
    else:
        print(f"check {target_info.id} vs {len(prior)} prior runs")
        print(comparison.render(verbose=args.verbose))
    return 0 if comparison.ok else 1


def _load_run_profile(args: argparse.Namespace):
    """A ledger run document plus its (required) profile section."""
    from repro.errors import AnalysisError
    from repro.obs import history as obs_history

    document = obs_history.load_run(args.run, args.dir)
    profile = document["manifest"].get("profile")
    if not profile or not profile.get("samples"):
        raise AnalysisError(
            f"run {document['id']} has no sampled stacks; record it "
            f"with --profile cpu (or all)"
        )
    samples = {
        str(key): int(count)
        for key, count in profile["samples"].items()
    }
    return document, profile, samples


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    import json

    from repro import artifact
    from repro.obs import profiling as obs_profiling

    document, profile, samples = _load_run_profile(args)
    manifest = document["manifest"]
    title = (
        f"repro {manifest.get('command', '?')} — run {document['id']} "
        f"({profile.get('sampler', '?')} sampler, "
        f"{profile.get('mode', '?')} mode)"
    )
    out = artifact.atomic_write(
        args.out, obs_profiling.flamegraph_html(samples, title=title)
    )
    written = {"run": document["id"], "out": str(out),
               "samples": sum(samples.values()),
               "stacks": len(samples)}
    if args.collapsed:
        collapsed = artifact.atomic_write(
            args.collapsed, obs_profiling.collapsed_stacks(samples) + "\n"
        )
        written["collapsed"] = str(collapsed)
    if args.json:
        print(json.dumps(written, indent=2, sort_keys=True))
        return 0
    print(f"wrote flamegraph for {document['id']} "
          f"({written['samples']} samples, {written['stacks']} distinct "
          f"stacks) to {out}")
    if args.collapsed:
        print(f"wrote collapsed stacks to {written['collapsed']}")
    return 0


def _cmd_obs_top(args: argparse.Namespace) -> int:
    import json

    from repro.obs import history as obs_history
    from repro.obs import profiling as obs_profiling

    document = obs_history.load_run(args.run, args.dir)
    manifest = document["manifest"]
    spans = obs_profiling.top_manifest_series(manifest, args.n)
    profile = manifest.get("profile") or {}
    samples = {
        str(key): int(count)
        for key, count in profile.get("samples", {}).items()
    }
    frames = obs_profiling.top_frames(samples, args.n) if samples else []
    if args.json:
        print(json.dumps(
            {"run": document["id"], "spans": spans, "frames": frames},
            indent=2, sort_keys=True,
        ))
        return 0
    print(f"top {args.n} span series of run {document['id']} "
          f"(by total wall time):")
    if not spans:
        print("  (no span histograms recorded)")
    for entry in spans:
        print(f"  {entry['name']:<28s} x{entry['calls']:<6d}"
              f" wall {entry['wall_s'] * 1e3:10.2f} ms"
              f"  mean {entry['mean_s'] * 1e3:8.3f} ms")
    if frames:
        total = sum(samples.values())
        workers = profile.get("workers", [])
        source = f"{total} samples"
        if workers:
            # Workers ship one profile per chunk; count distinct pids.
            pids = {worker.get("pid") for worker in workers}
            source += f" across {len(pids) + 1} processes"
        print(f"top {args.n} frames ({source}, by self samples):")
        for entry in frames:
            self_pct = 100.0 * entry["self_samples"] / total if total else 0
            total_pct = (
                100.0 * entry["total_samples"] / total if total else 0
            )
            print(f"  {entry['frame']:<44s} self {self_pct:5.1f}%"
                  f"  total {total_pct:5.1f}%")
    return 0


_OBS_VERBS = {
    "history": _cmd_obs_history,
    "diff": _cmd_obs_diff,
    "check": _cmd_obs_check,
    "flame": _cmd_obs_flame,
    "top": _cmd_obs_top,
}


def _cmd_obs(args: argparse.Namespace) -> int:
    return _warn_on_ledger_damage(_OBS_VERBS[args.obs_command], args)


def _record_span_histograms(roots) -> None:
    """Feed every finished span's wall time into per-name histograms.

    Uses always-live instrument handles (tracing is already disabled by
    the time this runs), so ``span.<name>.wall_seconds`` histograms —
    and hence p50/p95/p99 in manifests and OpenMetrics output — exist
    for every span name of the run.
    """
    from repro.obs import metrics as obs_metrics

    for root in roots:
        for recorded in root.walk():
            obs_metrics.histogram(
                f"span.{recorded.name}.wall_seconds"
            ).observe(recorded.wall_time)


def _finish_obs(args: argparse.Namespace, argv: Sequence[str]) -> None:
    """Emit span trees, metrics, the ledger entry and export files."""
    from repro import obs

    # End the profiling session before obs is disabled so its final
    # gauges land in the snapshot; publication itself uses always-live
    # handles, so the ordering only matters for determinism of output.
    profile_data = obs.profiling.end_session()
    obs.disable()
    roots = obs.finished_roots()
    _record_span_histograms(roots)
    snapshot = obs.snapshot()
    mode = getattr(args, "obs", "off")
    if mode == "summary":
        print("--- obs: span tree " + "-" * 41)
        print(obs.export.render_span_tree(roots))
        rendered = obs.export.render_metrics(snapshot)
        if rendered:
            print("--- obs: metrics " + "-" * 43)
            print(rendered)
    elif mode == "json":
        print(obs.export.spans_to_jsonl(roots, snapshot))
    manifest = obs.manifest.build_manifest(
        args.command,
        list(argv),
        roots,
        snapshot,
        engine=getattr(args, "engine", None),
        suite=getattr(args, "suite", None),
        k=getattr(args, "k", None),
        profile=profile_data.to_dict() if profile_data else None,
    )
    recorded = mode != "off" or profile_data is not None
    if recorded and args.command not in ("obs", "obs-report"):
        info = obs.history.record_run(manifest)
        print(f"--- obs: run recorded as {info.id}")
    if profile_data is not None:
        print(f"--- obs: profiled {profile_data.sample_count} samples "
              f"({profile_data.sampler} sampler), peak rss "
              f"{profile_data.peak_rss_bytes / 1e6:.1f} MB")
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        path = obs.export.write_chrome_trace(trace_out, roots, snapshot)
        print(f"--- obs: chrome trace written to {path}")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        path = obs.openmetrics.write_metrics(metrics_out, snapshot, manifest)
        print(f"--- obs: openmetrics written to {path}")


_COMMANDS = {
    "list": _cmd_list,
    "profile": _cmd_profile,
    "subset": _cmd_subset,
    "dendrogram": _cmd_dendrogram,
    "inputsets": _cmd_inputsets,
    "rate-speed": _cmd_rate_speed,
    "balance": _cmd_balance,
    "power": _cmd_power,
    "casestudies": _cmd_casestudies,
    "sensitivity": _cmd_sensitivity,
    "report": _cmd_report,
    "dataset": _cmd_dataset,
    "export": _cmd_export,
    "campaign": _cmd_campaign,
    "obs-report": _cmd_obs_report,
    "obs": _cmd_obs,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    With ``--obs off`` (the default) and no ``--trace-out``, the
    observability layer is never enabled and output is identical to an
    uninstrumented build.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    profile_mode = getattr(args, "profile", "off")
    traced = bool(
        getattr(args, "obs", "off") != "off"
        or getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
    )
    profiled = profile_mode != "off"
    root = None
    if traced or profiled:
        from repro import obs

        # Spans an earlier in-process run left would otherwise be this
        # run's roots when only --profile is on.
        obs.reset()
        obs.metrics.reset()
        if traced:
            obs.enable()
            root = obs.span(f"repro.{args.command}")
            root.__enter__()
        if profiled:
            # --profile alone attaches only the sampler — span tracing
            # stays off so the profiler's measured overhead vs a plain
            # run is the sampler's own cost, nothing else.  A --jobs N
            # sweep profiles its workers in this session's mode.
            obs.profiling.start_session(profile_mode)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        if traced or profiled:
            if root is not None:
                root.__exit__(None, None, None)
            _finish_obs(args, argv if argv is not None else sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
