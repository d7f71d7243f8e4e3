"""Run manifests: what ran, with what inputs, and where time went.

Every observed top-level analysis emits one manifest — a JSON document
recording the command, its arguments, the package version, per-stage
elapsed time (derived from the root span's direct children) and the
final metric snapshot — so any reproduced figure or table is
attributable to an exact invocation.

Manifests are written to ``$REPRO_OBS_DIR`` (default ``.repro-obs`` in
the working directory) as ``last_manifest.json``; ``repro obs-report``
pretty-prints the most recent one.  All content derives from the
injectable obs clock, so manifests are deterministic under a fixed
clock (tested in ``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Sequence, Union

from repro import artifact
from repro.obs.trace import Span

__all__ = [
    "build_manifest",
    "manifest_dir",
    "write_manifest",
    "load_last_manifest",
    "render_manifest",
    "LAST_MANIFEST_NAME",
]

PathLike = Union[str, Path]

#: File name of the most recent manifest inside the obs directory.
LAST_MANIFEST_NAME = "last_manifest.json"


def manifest_dir(directory: Optional[PathLike] = None) -> Path:
    """The manifest directory: argument > ``$REPRO_OBS_DIR`` > default."""
    if directory is not None:
        return Path(directory)
    return Path(os.environ.get("REPRO_OBS_DIR", ".repro-obs"))


def _stage_timings(roots: Sequence[Span]) -> dict:
    """Per-stage wall/CPU seconds from the roots' direct children.

    The root span covers the whole command; its direct children are the
    pipeline stages.  Repeated stage names (e.g. many ``profile`` spans)
    aggregate by summing times and counting invocations.
    """
    stages: dict = {}
    for root in roots:
        for child in root.children:
            entry = stages.setdefault(
                child.name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0}
            )
            entry["calls"] += 1
            entry["wall_s"] += child.wall_time
            entry["cpu_s"] += child.cpu_time
    return {name: stages[name] for name in sorted(stages)}


def build_manifest(
    command: str,
    argv: Sequence[str],
    roots: Sequence[Span],
    metrics_snapshot: Optional[dict] = None,
    **extra: object,
) -> dict:
    """Assemble the manifest dict for one observed run.

    ``extra`` key/values (seed, engine, workload/machine lists, ...)
    are merged at the top level, so callers can attach whatever makes
    the run attributable.
    """
    from repro import __version__

    roots = list(roots)
    manifest = {
        "schema": "repro.obs.manifest/1",
        "version": __version__,
        "command": command,
        "argv": list(argv),
        "elapsed_s": sum(root.wall_time for root in roots),
        "cpu_s": sum(root.cpu_time for root in roots),
        "stages": _stage_timings(roots),
        "metrics": metrics_snapshot or {},
    }
    for key, value in extra.items():
        if value is not None:
            manifest[key] = value
    return manifest


def write_manifest(
    manifest: dict, directory: Optional[PathLike] = None
) -> Path:
    """Atomically write the manifest as ``last_manifest.json``."""
    path = manifest_dir(directory) / LAST_MANIFEST_NAME
    return artifact.atomic_write(
        path, json.dumps(manifest, indent=2, sort_keys=True)
    )


def load_last_manifest(directory: Optional[PathLike] = None) -> dict:
    """Read the most recent manifest, or raise ``AnalysisError``."""
    from repro.errors import AnalysisError

    path = manifest_dir(directory) / LAST_MANIFEST_NAME
    if not path.exists():
        raise AnalysisError(
            f"no manifest at {path}; run a command with --obs first"
        )
    manifest = artifact.read_json_object(path, "history.corrupt")
    if manifest is None:
        raise AnalysisError(
            f"manifest at {path} is damaged; rerun a command with --obs"
        )
    return manifest


def render_manifest(manifest: dict) -> str:
    """Pretty console rendering for ``repro obs-report``."""
    lines = [
        f"command:  {manifest.get('command', '?')}",
        f"argv:     {' '.join(manifest.get('argv', []))}",
        f"version:  {manifest.get('version', '?')}",
        f"elapsed:  {manifest.get('elapsed_s', 0.0) * 1e3:.2f} ms "
        f"(cpu {manifest.get('cpu_s', 0.0) * 1e3:.2f} ms)",
    ]
    for key in sorted(manifest):
        if key in (
            "command",
            "argv",
            "version",
            "elapsed_s",
            "cpu_s",
            "stages",
            "metrics",
            "profile",
            "schema",
        ):
            continue
        lines.append(f"{key + ':':<10s}{manifest[key]}")
    profile = manifest.get("profile")
    if profile:
        lines.append(
            f"profile:  mode={profile.get('mode', '?')} "
            f"sampler={profile.get('sampler', '?')} "
            f"samples={profile.get('sample_count', 0)} "
            f"peak_rss={profile.get('peak_rss_bytes', 0) / 1e6:.1f}MB "
            f"peak_alloc={profile.get('peak_alloc_bytes', 0) / 1e6:.1f}MB"
        )
        workers = profile.get("workers", [])
        for worker in workers:
            lines.append(
                f"  worker pid={worker.get('pid', '?')} "
                f"samples={worker.get('sample_count', 0)} "
                f"peak_rss={worker.get('peak_rss_bytes', 0) / 1e6:.1f}MB"
            )
        stage_peaks = profile.get("stage_alloc_peaks", {})
        for label in sorted(stage_peaks):
            lines.append(
                f"  alloc-peak {label:<24s} "
                f"{stage_peaks[label] / 1e6:8.2f} MB"
            )
    stages = manifest.get("stages", {})
    if stages:
        lines.append("stages:")
        for name, entry in stages.items():
            lines.append(
                f"  {name:<26s} x{entry['calls']:<5d}"
                f" wall {entry['wall_s'] * 1e3:9.2f} ms"
                f"  cpu {entry['cpu_s'] * 1e3:9.2f} ms"
            )
    metrics = manifest.get("metrics", {})
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<34s} {value:12g}")
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in gauges.items():
            lines.append(f"  {name:<34s} {value:12g}")
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name, stats in histograms.items():
            lines.append(
                f"  {name:<34s} n={stats.get('count', 0):<6d}"
                f" mean={_fmt(stats.get('mean'))}"
                f" min={_fmt(stats.get('min'))}"
                f" max={_fmt(stats.get('max'))}"
            )
            if stats.get("p50") is not None:
                lines.append(
                    f"  {'':<34s} p50={_fmt(stats.get('p50'))}"
                    f" p95={_fmt(stats.get('p95'))}"
                    f" p99={_fmt(stats.get('p99'))}"
                )
    return "\n".join(lines)


def _fmt(value: Optional[float]) -> str:
    """Compact numeric formatting for manifest rendering (``-`` = absent)."""
    return f"{value:.6g}" if value is not None else "-"
