"""OpenMetrics / Prometheus text exposition of a run's metrics.

Renders a metrics snapshot (and optionally the manifest's stage
timings) in the OpenMetrics text format, so any Prometheus-compatible
scraper, pushgateway or ad-hoc ``promtool`` invocation can ingest a
``repro`` run without custom glue::

    text = render_openmetrics(obs.snapshot(), manifest)
    # repro_profiler_cache_miss_total 70
    # repro_span_profile_wall_seconds_bucket{le="0.001"} 12
    # repro_stage_wall_seconds{stage="similarity.pca"} 0.0031
    # ...
    # # EOF

Mapping:

* counters  -> ``counter`` families (``_total`` samples),
* gauges    -> ``gauge`` families,
* histograms -> ``histogram`` families (cumulative ``_bucket{le=...}``
  series from the fixed log-spaced buckets, ``_sum``, ``_count``) plus
  a ``summary`` family ``<name>_quantiles`` carrying the dependency-free
  p50/p95/p99 estimates,
* manifest stages -> ``repro_stage_{wall,cpu}_seconds{stage=...}``
  gauges and a ``repro_stage_calls`` counter family, plus
  ``repro_run_info`` identifying command and version.

Families whose names carry a recognised unit suffix (``_seconds``,
``_bytes`` — e.g. the profiler's peak-RSS gauge
``repro_profiler_peak_rss_bytes``) additionally get a ``# UNIT``
metadata line, as the OpenMetrics spec requires the unit to match the
family-name suffix.

The round-trip tests parse every rendering with a strict reader of
the same grammar, ``tests/openmetrics_reader.py``.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Union

from repro import artifact

__all__ = [
    "render_openmetrics",
    "write_metrics",
    "sanitize_name",
]

PathLike = Union[str, Path]

#: Prefix for every exported metric family.
PREFIX = "repro_"

#: Units recognised from a family-name suffix.  OpenMetrics requires a
#: family with a ``# UNIT`` to be named ``<...>_<unit>``, so the unit
#: is derivable from (and validated against) the name itself.
_KNOWN_UNITS = ("seconds", "bytes")


def _unit_for(family: str) -> Optional[str]:
    """The declarable unit of a family, from its name suffix."""
    for unit in _KNOWN_UNITS:
        if family.endswith("_" + unit):
            return unit
    return None


def _metadata_lines(family: str, family_type: str) -> List[str]:
    """``# TYPE`` (and ``# UNIT`` when the name carries one) lines."""
    lines = [f"# TYPE {family} {family_type}"]
    unit = _unit_for(family)
    if unit is not None:
        lines.append(f"# UNIT {family} {unit}")
    return lines


def sanitize_name(name: str) -> str:
    """A metric name mapped onto the exposition-format charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return PREFIX + cleaned


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Shortest faithful numeric rendering (ints without the ``.0``)."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _labels(**labels: object) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in labels.items()
    )
    return "{" + body + "}"


def _histogram_lines(name: str, stats: dict) -> List[str]:
    count = int(stats.get("count", 0))
    total = float(stats.get("sum", 0.0))
    lines = _metadata_lines(name, "histogram")
    cumulative = 0
    for bound, bucket_count in stats.get("buckets", []):
        if bound is None:  # overflow; folded into the +Inf bucket below
            continue
        cumulative += int(bucket_count)
        lines.append(
            f'{name}_bucket{{le="{_fmt(float(bound))}"}} {cumulative}'
        )
    lines.append(f'{name}_bucket{{le="+Inf"}} {count}')
    lines.append(f"{name}_sum {_fmt(total)}")
    lines.append(f"{name}_count {count}")
    quantiles = [
        (q, stats.get(key))
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))
        if stats.get(key) is not None
    ]
    if quantiles:
        summary = f"{name}_quantiles"
        lines.append(f"# TYPE {summary} summary")
        for q, value in quantiles:
            lines.append(f'{summary}{{quantile="{q}"}} {_fmt(value)}')
        lines.append(f"{summary}_sum {_fmt(total)}")
        lines.append(f"{summary}_count {count}")
    return lines


def render_openmetrics(
    snapshot: dict, manifest: Optional[dict] = None
) -> str:
    """The snapshot (and manifest stages) as exposition-format text."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        family = sanitize_name(name)
        lines.extend(_metadata_lines(family, "counter"))
        lines.append(f"{family}_total {_fmt(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        family = sanitize_name(name)
        lines.extend(_metadata_lines(family, "gauge"))
        lines.append(f"{family} {_fmt(value)}")
    for name, stats in snapshot.get("histograms", {}).items():
        lines.extend(_histogram_lines(sanitize_name(name), stats))
    if manifest is not None:
        stages = manifest.get("stages", {})
        if stages:
            lines.extend(
                _metadata_lines(f"{PREFIX}stage_wall_seconds", "gauge")
            )
            for stage, entry in stages.items():
                lines.append(
                    f"{PREFIX}stage_wall_seconds"
                    f"{_labels(stage=stage)} {_fmt(entry['wall_s'])}"
                )
            lines.extend(
                _metadata_lines(f"{PREFIX}stage_cpu_seconds", "gauge")
            )
            for stage, entry in stages.items():
                lines.append(
                    f"{PREFIX}stage_cpu_seconds"
                    f"{_labels(stage=stage)} {_fmt(entry['cpu_s'])}"
                )
            lines.append(f"# TYPE {PREFIX}stage_calls counter")
            for stage, entry in stages.items():
                lines.append(
                    f"{PREFIX}stage_calls_total"
                    f"{_labels(stage=stage)} {_fmt(entry['calls'])}"
                )
        lines.extend(_metadata_lines(f"{PREFIX}run_elapsed_seconds", "gauge"))
        lines.append(
            f"{PREFIX}run_elapsed_seconds "
            f"{_fmt(manifest.get('elapsed_s', 0.0))}"
        )
        lines.append(f"# TYPE {PREFIX}run_info gauge")
        lines.append(
            f"{PREFIX}run_info"
            + _labels(
                command=manifest.get("command", "?"),
                version=manifest.get("version", "?"),
            )
            + " 1"
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics(
    path: PathLike, snapshot: dict, manifest: Optional[dict] = None
) -> Path:
    """Atomically write the exposition-format text to ``path``."""
    return artifact.atomic_write(path, render_openmetrics(snapshot, manifest))
