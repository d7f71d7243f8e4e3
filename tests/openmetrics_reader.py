"""Strict reader of the OpenMetrics text that ``repro`` renders.

:func:`parse_openmetrics` checks the exposition format
:mod:`repro.obs.openmetrics` writes: metric-name charset, label
escaping, family/sample suffix consistency, cumulative bucket
monotonicity, the ``le="+Inf"``/``_count`` invariant and the final
``# EOF``.  The round-trip tests (``test_openmetrics.py``, and the
``--metrics-out`` check of ``test_cli.py``) parse every rendered
exposition with it, so the renderer can never silently drift off-spec.
No command reads OpenMetrics text, so the reader lives with the tests.
It is a plain helper module (no ``test_`` prefix).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

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
