"""One-command reproduction report.

:func:`generate_report` runs the complete reproduction pipeline — all
of the paper's analyses — and writes a self-contained Markdown report
with the measured results next to the paper's published values.  This
is the artifact-evaluation entry point: ``repro report --out REPORT.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.perf.profiler import Profiler
from repro.workloads.spec import Suite, workloads_in_suite

__all__ = ["generate_report"]

_CPU2017_SUITES = (
    Suite.SPEC2017_SPEED_INT,
    Suite.SPEC2017_RATE_INT,
    Suite.SPEC2017_SPEED_FP,
    Suite.SPEC2017_RATE_FP,
)


def _md_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    lines = ["| " + " | ".join(str(h) for h in header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        cells = [
            f"{cell:.2f}" if isinstance(cell, float) else str(cell)
            for cell in row
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def _section_calibration(profiler: Profiler) -> List[str]:
    from repro.workloads.calibration import calibration_error

    errors = []
    for suite in _CPU2017_SUITES:
        for spec in workloads_in_suite(suite):
            result = calibration_error(spec, profiler)
            if result is not None:
                errors.append(result[1])
    return [
        "## CPI calibration (Table I)",
        "",
        f"All 43 CPU2017 models are calibrated against the published "
        f"Skylake CPI: mean error {np.mean(errors):.1%}, "
        f"max {np.max(errors):.1%}.",
        "",
    ]


def _section_subsets(profiler: Profiler) -> List[str]:
    from repro.core.subsetting import PAPER_SUBSETS, subset_suite
    from repro.core.validation import validate_subset

    rows = []
    for suite in _CPU2017_SUITES:
        subset = subset_suite(suite, k=3, profiler=profiler)
        weights = [len(c) for c in subset.clusters]
        validation = validate_subset(
            suite, subset.subset, weights=weights, profiler=profiler
        )
        rows.append([
            suite.value,
            ", ".join(sorted(subset.subset)),
            ", ".join(sorted(PAPER_SUBSETS[suite])),
            f"{subset.time_reduction:.1f}x",
            f"{validation.mean_error:.1%}",
        ])
    return [
        "## Representative subsets (Table V) and validation (Figs 5-6)",
        "",
        *_md_table(
            ["sub-suite", "subset (model)", "subset (paper)",
             "time reduction", "mean score error"],
            rows,
        ),
        "",
    ]


def _section_inputs(profiler: Profiler) -> List[str]:
    from repro.core.inputsets import (
        PAPER_REPRESENTATIVE_INPUTS,
        analyze_input_sets,
    )

    int_analysis = analyze_input_sets(
        suites=(Suite.SPEC2017_RATE_INT, Suite.SPEC2017_SPEED_INT),
        profiler=profiler,
    )
    fp_analysis = analyze_input_sets(
        suites=(Suite.SPEC2017_RATE_FP, Suite.SPEC2017_SPEED_FP),
        profiler=profiler,
    )
    combined = dict(int_analysis.representative)
    combined.update(fp_analysis.representative)
    rows = [
        [name, combined.get(name, "-"), paper,
         "yes" if combined.get(name) == paper else "no"]
        for name, paper in sorted(PAPER_REPRESENTATIVE_INPUTS.items())
    ]
    matches = sum(1 for row in rows if row[3] == "yes")
    return [
        "## Representative input sets (Table VII)",
        "",
        f"{matches}/{len(rows)} match the paper.",
        "",
        *_md_table(["benchmark", "model", "paper", "match"], rows),
        "",
    ]


def _section_balance(profiler: Profiler) -> List[str]:
    from repro.core.balance import analyze_balance
    from repro.workloads.spec2006 import PAPER_UNCOVERED

    report = analyze_balance(profiler=profiler)
    return [
        "## Suite balance (Figure 11)",
        "",
        f"- PC1-PC2: {report.plane_12.fraction_2017_outside_2006:.0%} of "
        f"CPU2017 outside the CPU2006 hull (paper: >25%).",
        f"- PC3-PC4 area ratio 2017/2006: "
        f"{report.plane_34.expansion:.2f} (paper: ~2x).",
        f"- Uncovered removed benchmarks: "
        f"{', '.join(report.uncovered_removed)} "
        f"(paper: {', '.join(PAPER_UNCOVERED)}).",
        "",
    ]


def _section_cases(profiler: Profiler) -> List[str]:
    from repro.core.casestudies import analyze_case_studies

    report = analyze_case_studies(profiler=profiler)
    rows = [
        [name, nearest, f"{report.coverage_ratio(name):.2f}",
         "yes" if report.is_covered(name) else "no"]
        for name, (nearest, _d) in sorted(report.nearest_cpu2017.items())
    ]
    return [
        "## Emerging workloads (Figure 13)",
        "",
        *_md_table(
            ["workload", "nearest CPU2017", "distance / median", "covered"],
            rows,
        ),
        "",
    ]


def _section_power(profiler: Profiler) -> List[str]:
    from repro.core.power_analysis import analyze_power_spectrum

    spectrum = analyze_power_spectrum(profiler=profiler)
    return [
        "## Power spectrum (Figure 12)",
        "",
        f"- Power-space area ratio 2017/2006: {spectrum.expansion:.2f}.",
        f"- Core-power spread: CPU2017 "
        f"{spectrum.core_power_spread_2017:.2f} W vs CPU2006 "
        f"{spectrum.core_power_spread_2006:.2f} W "
        f"(paper: CPU2017 more core-power diverse).",
        "",
    ]


def generate_report(
    path: Union[str, Path] = "REPORT.md",
    profiler: Optional[Profiler] = None,
) -> Path:
    """Run the full reproduction and write the Markdown report."""
    profiler = profiler or Profiler()
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Paper: *Wait of a Decade: Did SPEC CPU 2017 Broaden the "
        "Performance Horizon?* (Panda, Song, Dean, John — HPCA 2018).",
        "",
        "Generated by `repro report`.  Substrate: synthetic workload "
        "models + simulated machines (see DESIGN.md); comparisons target "
        "the paper's qualitative findings (see EXPERIMENTS.md).",
        "",
    ]
    lines += _section_calibration(profiler)
    lines += _section_subsets(profiler)
    lines += _section_inputs(profiler)
    lines += _section_balance(profiler)
    lines += _section_power(profiler)
    lines += _section_cases(profiler)

    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path
