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

:func:`parse_openmetrics` is a strict reader of the same grammar —
metric-name charset, label escaping, family/sample suffix consistency,
cumulative bucket monotonicity, the ``le="+Inf"``/``_count`` invariant
and the final ``# EOF`` — used by the round-trip tests so the renderer
can never silently drift off-spec.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import artifact

__all__ = [
    "render_openmetrics",
    "write_metrics",
    "parse_openmetrics",
    "sanitize_name",
]

PathLike = Union[str, Path]

#: Prefix for every exported metric family.
PREFIX = "repro_"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)

#: Sample-name suffixes permitted per family type.
_TYPE_SUFFIXES = {
    "counter": ("_total",),
    "gauge": ("",),
    "histogram": ("_bucket", "_sum", "_count"),
    "summary": ("", "_sum", "_count"),
}

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


def _parse_value(token: str, line_number: int) -> float:
    if token == "+Inf":
        return float("inf")
    if token == "-Inf":
        return float("-inf")
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"line {line_number}: bad sample value {token!r}")


def _parse_labels(raw: Optional[str], line_number: int) -> Dict[str, str]:
    if not raw:
        return {}
    labels: Dict[str, str] = {}
    consumed = 0
    for match in _LABEL_RE.finditer(raw):
        labels[match.group("name")] = (
            match.group("value")
            .replace("\\n", "\n")
            .replace('\\"', '"')
            .replace("\\\\", "\\")
        )
        consumed += len(match.group(0))
    # Everything besides the matched pairs must be separating commas.
    separators = len(labels) - 1 if labels else 0
    if consumed + max(separators, 0) != len(raw):
        raise ValueError(f"line {line_number}: malformed labels {raw!r}")
    return labels


def parse_openmetrics(text: str) -> Dict[str, dict]:
    """Parse (and validate) exposition-format text.

    Returns ``{family: {"type": ..., "samples": [(name, labels,
    value), ...]}}``; raises ``ValueError`` on any grammar violation:
    missing ``# EOF``, malformed sample lines, samples without a
    ``# TYPE`` declaration, suffixes inconsistent with the declared
    type, non-monotonic histogram buckets, or a ``+Inf`` bucket that
    disagrees with ``_count``.
    """
    lines = text.splitlines()
    if not lines or lines[-1] != "# EOF":
        raise ValueError("exposition must end with '# EOF'")
    families: Dict[str, dict] = {}
    order: List[str] = []
    for line_number, line in enumerate(lines[:-1], start=1):
        if not line:
            raise ValueError(f"line {line_number}: blank line")
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(
                    f"line {line_number}: malformed TYPE declaration"
                )
            _, _, family, family_type = parts
            if not _NAME_RE.match(family):
                raise ValueError(
                    f"line {line_number}: bad family name {family!r}"
                )
            if family_type not in _TYPE_SUFFIXES:
                raise ValueError(
                    f"line {line_number}: unknown type {family_type!r}"
                )
            if family in families:
                raise ValueError(
                    f"line {line_number}: duplicate family {family!r}"
                )
            families[family] = {"type": family_type, "samples": []}
            order.append(family)
            continue
        if line.startswith("# UNIT "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(
                    f"line {line_number}: malformed UNIT declaration"
                )
            _, _, family, unit = parts
            if family not in families:
                raise ValueError(
                    f"line {line_number}: UNIT for undeclared family "
                    f"{family!r}"
                )
            if "unit" in families[family]:
                raise ValueError(
                    f"line {line_number}: duplicate UNIT for {family!r}"
                )
            if not unit or not family.endswith("_" + unit):
                raise ValueError(
                    f"line {line_number}: family {family!r} must be "
                    f"suffixed with its unit {unit!r}"
                )
            families[family]["unit"] = unit
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("#"):
            raise ValueError(f"line {line_number}: unknown comment {line!r}")
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {line_number}: malformed sample {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels"), line_number)
        for label_name in labels:
            if not _LABEL_NAME_RE.match(label_name):
                raise ValueError(
                    f"line {line_number}: bad label name {label_name!r}"
                )
        value = _parse_value(match.group("value"), line_number)
        family = _family_for(sample_name, families)
        if family is None:
            raise ValueError(
                f"line {line_number}: sample {sample_name!r} has no "
                f"TYPE declaration"
            )
        families[family]["samples"].append((sample_name, labels, value))
    for family in order:
        _check_family(family, families[family])
    return families


def _family_for(
    sample_name: str, families: Dict[str, dict]
) -> Optional[str]:
    """The declared family a sample belongs to (longest match wins)."""
    best: Optional[str] = None
    for family, info in families.items():
        for suffix in _TYPE_SUFFIXES[info["type"]]:
            if sample_name == family + suffix:
                if best is None or len(family) > len(best):
                    best = family
    return best


def _check_family(family: str, info: dict) -> None:
    samples: Sequence[Tuple[str, Dict[str, str], float]] = info["samples"]
    if not samples:
        raise ValueError(f"family {family!r} declared but has no samples")
    if info["type"] != "histogram":
        return
    count: Optional[float] = None
    buckets: List[Tuple[float, float]] = []
    for name, labels, value in samples:
        if name == family + "_count" and not labels:
            count = value
        elif name == family + "_bucket":
            if "le" not in labels:
                raise ValueError(
                    f"histogram {family!r} bucket without 'le' label"
                )
            bound = _parse_value(labels["le"], 0)
            buckets.append((bound, value))
    if not buckets or buckets[-1][0] != float("inf"):
        raise ValueError(
            f"histogram {family!r} must end with an le=\"+Inf\" bucket"
        )
    bounds = [b for b, _ in buckets]
    counts = [c for _, c in buckets]
    if bounds != sorted(bounds):
        raise ValueError(f"histogram {family!r} buckets out of order")
    if counts != sorted(counts):
        raise ValueError(f"histogram {family!r} buckets not cumulative")
    if count is not None and counts[-1] != count:
        raise ValueError(
            f"histogram {family!r}: +Inf bucket {counts[-1]} != "
            f"count {count}"
        )
