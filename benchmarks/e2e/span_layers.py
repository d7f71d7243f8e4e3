"""Span-to-layer attribution for the end-to-end benchmark's traced op.

One fixed map assigns every span the program records (plus the timing
wrappers ``op.py`` installs around public entry points that have no
span of their own) to exactly one layer.  A span whose name is not in
the map belongs to the layer of its nearest mapped ancestor, so a span
added inside a layer later never leaks time out of it.

A span's *self* time is its duration minus the union of its children's
intervals, clipped to the span.  Summing child durations instead would
go negative wherever children overlap: the executor adopts pool-worker
chunk spans that ran side by side under one ``executor.sweep``.

This module only reads span objects (anything with ``name``,
``attributes``, ``wall_start``, ``wall_end`` and ``children``), so it
imports nothing from the program under test.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

#: Span name -> layer.  Layers are named after the repo modules that
#: record the spans (see README.md, "Layers").
LAYER_OF: Dict[str, str] = {
    "calibration.fit": "calibration",
    "engine.analytic": "analytic",
    "dataset.build_matrix": "profiler",
    "profile": "profiler",
    "profile.batch": "profiler",
    "diskcache.load": "diskcache",
    "diskcache.store": "diskcache",
    "trace.synthesize": "synthesis",
    "synthesis.synthesize_trace": "synthesis",
    "trace.fused": "fused",
    "trace.dcache": "replay",
    "trace.icache": "replay",
    "trace.tlb": "replay",
    "trace.branch": "replay",
    "executor.sweep": "executor",
    "executor.chunk": "executor",
    "pca.fit": "analysis",
    "cluster.linkage": "analysis",
    "campaign.run": "campaign",
    "campaign.generate": "campaign",
    "campaign.shard": "campaign",
    "campaign.fold": "campaign",
    "campaign_store.write_rows": "campaign",
    "feature_store.append_machine_block": "campaign",
    "reporting.generate_report": "reporting",
}

#: Name prefixes for span families the core analyses record.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("similarity.", "analysis"),
    ("subset.", "analysis"),
    ("validate.", "analysis"),
    ("analysis.", "analysis"),
    ("designspace.", "analysis"),
)


def layer_of(name: str) -> Optional[str]:
    """The layer a span name maps to, or ``None`` when unmapped."""
    layer = LAYER_OF.get(name)
    if layer is not None:
        return layer
    for prefix, prefix_layer in LAYER_PREFIXES:
        if name.startswith(prefix):
            return prefix_layer
    return None


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(span) -> float:
    """Duration minus the union of the children's intervals."""
    children = ((child.wall_start, child.wall_end) for child in span.children)
    return (span.wall_end - span.wall_start) - covered(
        children, span.wall_start, span.wall_end
    )


def walk(roots: Iterable) -> Iterator[Tuple[object, Optional[str]]]:
    """Every span with its effective layer (inherited when unmapped)."""
    stack: List[Tuple[object, Optional[str]]] = [
        (root, layer_of(root.name)) for root in reversed(list(roots))
    ]
    while stack:
        span, layer = stack.pop()
        yield span, layer
        for child in reversed(span.children):
            stack.append((child, layer_of(child.name) or layer))


def layer_self_times(roots: Iterable) -> Dict[str, float]:
    """Self seconds per layer; unmapped top-level spans go to ``unmapped``."""
    totals: Dict[str, float] = defaultdict(float)
    for span, layer in walk(roots):
        totals[layer or "unmapped"] += self_time(span)
    return dict(totals)


def mapped_intervals(roots: Iterable) -> List[Tuple[float, float]]:
    """Intervals of the outermost spans that belong to some layer."""
    intervals = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        if layer_of(span.name) is not None:
            intervals.append((span.wall_start, span.wall_end))
        else:
            stack.extend(span.children)
    return intervals


def _spans(roots: Iterable, name: str) -> List[object]:
    return [span for span, _layer in walk(roots) if span.name == name]


def _total(spans: Sequence) -> float:
    return float(sum(span.wall_end - span.wall_start for span in spans))


def _self_total(roots: Iterable, layer: str, names: Optional[set] = None) -> float:
    return float(sum(
        self_time(span)
        for span, span_layer in walk(roots)
        if span_layer == layer and (names is None or span.name in names)
    ))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    roots: Sequence,
    op_start: float,
    op_end: float,
    setup_counters: Mapping[str, float],
    op_counters: Mapping[str, float],
) -> Dict[str, float]:
    """The per-layer metrics of one traced op.

    ``roots`` is the whole process's span forest; roots that start
    before ``op_start`` belong to set-up (``import repro`` plus
    ``all_workloads()``), the rest to the op.  ``setup_counters`` are
    the obs counters at the end of set-up, ``op_counters`` their growth
    during the op.
    """
    setup = [root for root in roots if root.wall_start < op_start]
    op = [root for root in roots if root.wall_start >= op_start]

    def count(name: str) -> float:
        return float(op_counters.get(name, 0.0))

    analytic = _spans(op, "engine.analytic")
    analytic_s = _self_total(op, "analytic")
    fused = _spans(op, "trace.fused")
    fused_s = _self_total(op, "fused")
    fused_machines = sum(int(s.attributes.get("machines", 1)) for s in fused)
    fused_events = sum(
        int(s.attributes.get("machines", 1))
        * (
            int(s.attributes.get("refs", 0))
            + int(s.attributes.get("fetches", 0))
            + int(s.attributes.get("branches", 0))
        )
        for s in fused
    )
    syntheses = len(_spans(op, "synthesis.synthesize_trace"))
    trace_lookups = len(_spans(op, "trace.synthesize"))
    loads = _spans(op, "diskcache.load")
    stores = _spans(op, "diskcache.store")
    memo_hits = count("profiler.cache.hit")
    computed = count("profiler.cache.miss")
    lookups = memo_hits + count("profiler.diskcache.hit") + computed
    op_s = op_end - op_start
    return {
        "traced_op_s": op_s,
        "unattributed_s": op_s - covered(mapped_intervals(op), op_start, op_end),
        "calibration.self_s": _self_total(setup, "calibration"),
        "calibration.analytic_s": _self_total(setup, "analytic"),
        "calibration.fits": float(setup_counters.get("calibration.fits", 0.0)),
        "calibration.analytic_calls": float(len(_spans(setup, "engine.analytic"))),
        "analytic.self_s": analytic_s,
        "analytic.calls": float(len(analytic)),
        "analytic.us_per_call": 1e6 * _ratio(analytic_s, len(analytic)),
        "profiler.self_s": _self_total(op, "profiler"),
        "profiler.lookups": lookups,
        "profiler.memo_hit_ratio": _ratio(memo_hits, lookups),
        "diskcache.loads": float(len(loads)),
        "diskcache.load_s": _total(loads),
        "diskcache.hit_ratio": _ratio(count("profiler.diskcache.hit"), len(loads)),
        "diskcache.stores": float(len(stores)),
        "diskcache.store_s": _total(stores),
        "synthesis.self_s": _self_total(op, "synthesis"),
        "synthesis.calls": float(syntheses),
        "synthesis.per_pair": _ratio(syntheses, computed),
        "trace_cache.hit_ratio": _ratio(trace_lookups - syntheses, trace_lookups),
        "fused.self_s": fused_s,
        "fused.calls": float(len(fused)),
        "fused.machines_per_call": _ratio(fused_machines, len(fused)),
        "fused.ns_per_event": 1e9 * _ratio(fused_s, fused_events),
        "replay.self_s": _self_total(op, "replay"),
        "executor.self_s": _self_total(op, "executor"),
        "executor.chunks": float(len(_spans(op, "executor.chunk"))),
        "executor.tasks": count("executor.tasks.completed"),
        "analysis.self_s": _self_total(op, "analysis"),
        "pca.fits": float(len(_spans(op, "pca.fit"))),
        "cluster.distance_evals": count("cluster.distance_evals"),
        "campaign.generate_s": _total(_spans(op, "campaign.generate")),
        "campaign.shard_self_s": _self_total(op, "campaign", {"campaign.shard"}),
        "campaign.store_write_s": _total(_spans(op, "campaign_store.write_rows")),
        "feature_store.append_s": _total(
            _spans(op, "feature_store.append_machine_block")
        ),
        "campaign.fold_s": _total(_spans(op, "campaign.fold")),
        "reporting.self_s": _self_total(op, "reporting"),
    }
