"""Observability for the reproduction pipeline.

A lightweight, dependency-free instrumentation layer threaded through
every pipeline stage (profiling, PCA, clustering, subsetting,
validation, design-space exploration):

* :mod:`repro.obs.trace` — nested, thread-safe spans with wall/CPU
  time and attributes; injectable clock.
* :mod:`repro.obs.metrics` — named counters / gauges / histograms with
  a deterministic snapshot API.
* :mod:`repro.obs.progress` — bounded heartbeats for long sweeps.
* :mod:`repro.obs.export` — console, JSON-lines and Chrome-trace
  (``chrome://tracing`` / Perfetto) rendering.
* :mod:`repro.obs.manifest` — per-run manifests attributing every
  reproduced figure/table to an exact invocation.
* :mod:`repro.obs.history` — append-only, checksummed run ledger under
  the obs dir so runs are longitudinal, not one-shot.
* :mod:`repro.obs.baseline` — median+MAD baselines over the ledger and
  ok/improved/regressed verdicts (``repro obs check``).
* :mod:`repro.obs.openmetrics` — OpenMetrics/Prometheus text
  exposition of the metrics snapshot (``--metrics-out``).
* :mod:`repro.obs.profiling` — sampling wall/CPU stack profiler and
  ``tracemalloc`` memory gauges (``--profile``), with flamegraph
  export (``repro obs flame``) and cross-process merge support.
* :mod:`repro.obs.live` — live telemetry hub: streaming worker
  heartbeats, progress/ETA tracking and stall detection while a sweep
  is in flight (``--serve-port``).
* :mod:`repro.obs.httpd` — stdlib HTTP server exposing ``/metrics``,
  ``/status``, ``/events`` (SSE) and ``/healthz`` (``--serve-port``,
  ``repro obs serve``).  Not imported with the package (it pulls in
  :mod:`http.server`); import ``repro.obs.httpd`` where you serve.

Everything is off by default and zero-cost when off: disabled call
sites reduce to a single branch (see DESIGN.md, "Observability").
Enable programmatically::

    from repro import obs

    obs.enable()
    ...                      # run analyses
    print(obs.export.render_span_tree(obs.finished_roots()))

or from the CLI with ``repro <command> --obs summary``.
"""

from repro.obs import (
    baseline,
    export,
    history,
    live,
    manifest,
    metrics,
    openmetrics,
    profiling,
    progress,
    trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    adjust_gauge,
    incr,
    observe,
    set_gauge,
    snapshot,
)
from repro.obs.progress import Progress, progress as make_progress
from repro.obs.trace import (
    Clock,
    Span,
    TraceContext,
    adopt_remote_spans,
    begin_remote_capture,
    current_context,
    current_span,
    disable,
    enable,
    enabled,
    end_remote_capture,
    finished_roots,
    reset,
    span,
)

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "Progress",
    "Span",
    "TraceContext",
    "adopt_remote_spans",
    "baseline",
    "begin_remote_capture",
    "current_context",
    "current_span",
    "disable",
    "enable",
    "enabled",
    "end_remote_capture",
    "export",
    "finished_roots",
    "history",
    "live",
    "openmetrics",
    "incr",
    "make_progress",
    "manifest",
    "metrics",
    "observe",
    "profiling",
    "progress",
    "reset",
    "set_gauge",
    "adjust_gauge",
    "snapshot",
    "span",
    "trace",
]
