"""Exporters for span trees and metric snapshots.

Three formats, all dependency-free:

* :func:`render_span_tree` / :func:`render_metrics` — human-readable
  console text (the ``--obs summary`` output).
* :func:`spans_to_jsonl` — one JSON object per root span tree plus one
  for the metrics snapshot (the ``--obs json`` output), suitable for
  ``jq`` and log shippers.
* :func:`chrome_trace_document` / :func:`write_chrome_trace` — the
  Chrome Trace Event format (JSON ``traceEvents`` array of complete
  ``"ph": "X"`` events), loadable in ``chrome://tracing`` and Perfetto.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.obs.trace import Span

__all__ = [
    "render_span_tree",
    "render_metrics",
    "spans_to_jsonl",
    "spans_to_events",
    "chrome_trace_document",
    "write_chrome_trace",
]

PathLike = Union[str, Path]


def _format_attributes(span: Span) -> str:
    if not span.attributes:
        return ""
    parts = " ".join(f"{k}={v}" for k, v in span.attributes.items())
    return f"  [{parts}]"


def render_span_tree(roots: Sequence[Span], collapse: bool = True) -> str:
    """Indented per-span wall/CPU times with attributes, one per line.

    With ``collapse`` (the default), same-name siblings are aggregated
    into one ``name xN`` line with summed times — the full study emits
    hundreds of ``profile`` spans and a readable summary needs per-stage
    totals, not one line per (workload, machine) pair.  Attributes are
    shown for singleton spans only.
    """
    lines: List[str] = []

    def emit(
        name: str, wall: float, cpu: float, depth: int, count: int,
        attrs: str,
    ) -> None:
        indent = "  " * depth
        label = name if count == 1 else f"{name} x{count}"
        lines.append(
            f"{indent}{label:<{max(28 - 2 * depth, 8)}s}"
            f" wall {wall * 1e3:9.2f} ms"
            f"  cpu {cpu * 1e3:9.2f} ms"
            f"{attrs}"
        )

    def visit_expanded(span: Span, depth: int) -> None:
        emit(
            span.name, span.wall_time, span.cpu_time, depth, 1,
            _format_attributes(span),
        )
        visit_children(span.children, depth + 1)

    def visit_children(children: Sequence[Span], depth: int) -> None:
        if not collapse:
            for child in children:
                visit_expanded(child, depth)
            return
        groups: dict = {}
        for child in children:
            groups.setdefault(child.name, []).append(child)
        for name, members in groups.items():
            if len(members) == 1:
                visit_expanded(members[0], depth)
                continue
            wall = sum(m.wall_time for m in members)
            cpu = sum(m.cpu_time for m in members)
            emit(name, wall, cpu, depth, len(members), "")
            merged: List[Span] = []
            for member in members:
                merged.extend(member.children)
            visit_children(merged, depth + 1)

    for root in roots:
        visit_expanded(root, 0)
    return "\n".join(lines)


def render_metrics(snapshot: dict) -> str:
    """A metrics snapshot as aligned ``name value`` console lines."""
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        lines.append(f"{name:<36s} {value:12g}")
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(f"{name:<36s} {value:12g}")
    for name, stats in snapshot.get("histograms", {}).items():
        line = (
            f"{name:<36s} n={stats['count']} mean={stats['mean']:g} "
            f"min={stats['min']} max={stats['max']}"
        )
        if stats.get("p50") is not None:
            line += (
                f" p50={stats['p50']:g} p95={stats['p95']:g} "
                f"p99={stats['p99']:g}"
            )
        lines.append(line)
    return "\n".join(lines)


def spans_to_jsonl(
    roots: Sequence[Span], metrics_snapshot: Optional[dict] = None
) -> str:
    """Root span trees (and optionally metrics) as JSON lines."""
    lines = [
        json.dumps({"type": "span", **root.to_dict()}, sort_keys=True)
        for root in roots
    ]
    if metrics_snapshot is not None:
        lines.append(
            json.dumps(
                {"type": "metrics", **metrics_snapshot}, sort_keys=True
            )
        )
    return "\n".join(lines)


def spans_to_events(
    roots: Sequence[Span], pid: Optional[int] = None
) -> List[dict]:
    """Flatten span trees into Chrome Trace complete ("X") events.

    Timestamps are microseconds relative to the earliest span start, as
    the trace-event format expects monotonically comparable ``ts``
    values rather than epoch times.  Each event carries the pid the
    span was recorded in, so spans adopted from executor workers render
    as separate tracks; ``pid`` forces a single override for all events
    (legacy single-process behaviour).
    """
    roots = list(roots)
    if not roots:
        return []
    origin = min(root.wall_start for root in roots)
    events: List[dict] = []
    for root in roots:
        for span in root.walk():
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": (span.wall_start - origin) * 1e6,
                    "dur": span.wall_time * 1e6,
                    "pid": pid if pid is not None else span.pid,
                    "tid": span.thread_id,
                    "args": {
                        str(k): v for k, v in span.attributes.items()
                    },
                }
            )
    return events


def _process_name_events(events: Sequence[dict]) -> List[dict]:
    """Metadata ("M") events labelling each worker-process track.

    Only emitted for multi-pid traces: single-process traces keep the
    exact event set the schema tests (and older tooling) expect.
    """
    pids = sorted({e["pid"] for e in events})
    if len(pids) <= 1:
        return []
    main_pid = min(pids)
    metadata = []
    for p in pids:
        label = "repro main" if p == main_pid else f"repro worker {p}"
        metadata.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": p,
                "tid": 0,
                "args": {"name": label},
            }
        )
    return metadata


def chrome_trace_document(
    roots: Sequence[Span], metrics_snapshot: Optional[dict] = None
) -> dict:
    """The full Chrome-trace JSON object for a run."""
    events = spans_to_events(roots)
    document = {
        "traceEvents": _process_name_events(events) + events,
        "displayTimeUnit": "ms",
    }
    if metrics_snapshot is not None:
        document["otherData"] = {"metrics": metrics_snapshot}
    return document


def write_chrome_trace(
    path: PathLike,
    roots: Sequence[Span],
    metrics_snapshot: Optional[dict] = None,
) -> Path:
    """Write a ``chrome://tracing`` / Perfetto loadable trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace_document(roots, metrics_snapshot)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path
