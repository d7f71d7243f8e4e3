"""Dependency-free sampling resource profiler.

Answers "where do wall time, CPU time and memory go?" for any observed
run without changing its results: profiling is attached around the
workload (``--profile {off,cpu,mem,all}``) and only ever *reads*
execution state, so report digests are bit-identical with and without
it (CI-enforced; see DESIGN.md, "Resource profiling").

Three cooperating pieces:

* **Stack samplers.**  :class:`ResourceProfiler` periodically captures
  Python stacks and accumulates them as collapsed ``a;b;c -> count``
  entries.  The primary sampler arms ``signal.setitimer(ITIMER_PROF)``
  so SIGPROF fires after consumed *CPU* time (CPU-weighted samples,
  near-zero cost while blocked) — but POSIX delivers signals only to
  the main thread, so a daemon-thread sampler walking
  ``sys._current_frames()`` (wall-weighted, sees every thread) is both
  the fallback and the explicit choice for executor workers.
* **Memory gauges.**  Peak RSS comes from ``VmHWM`` in
  ``/proc/self/status`` (free to read, covers native allocations).
  Python-heap attribution uses ``tracemalloc`` — but tracing every
  allocation makes the numpy-heavy trace engine ~11x slower, which
  would blow the ≤5% overhead budget.  So :func:`stage_probe` *samples*
  instead: the first instance of each stage label per session runs
  under tracemalloc (started just for that instance, stopped after)
  and records its allocation peak; repeats of a deterministic stage
  allocate identically, so one measured instance is representative and
  the amortized cost over a sweep is negligible.  Alloc probes fire
  only in the parent process; workers report peak RSS.
* **Cross-process merge.**  Executor pool workers run their own
  thread-sampler profiler per chunk, in the mode of the parent's
  active session, and ship ``ProfileData`` dicts back with the
  results; :func:`absorb_worker_profile` folds them into that session
  with per-worker (pid) attribution.

Sampled stacks feed the flamegraph exporters
(:func:`collapsed_stacks`, :func:`flamegraph_html`) surfaced as
``repro obs flame``; a recorded run's span histograms and samples feed
:func:`top_manifest_series` and :func:`top_frames` for ``repro obs
top``.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

from repro.obs import metrics as obs_metrics

__all__ = [
    "PROFILE_MODES",
    "ProfileData",
    "ResourceProfiler",
    "start_session",
    "end_session",
    "active_session",
    "clear_inherited_session",
    "absorb_worker_profile",
    "stage_probe",
    "collapsed_stacks",
    "flamegraph_html",
    "top_frames",
    "top_manifest_series",
    "peak_rss_bytes",
]

#: Valid ``--profile`` modes.
PROFILE_MODES = ("off", "cpu", "mem", "all")

#: Default sampling interval: 5 ms keeps measured overhead well under
#: the 5% budget while still resolving millisecond-scale stages.
DEFAULT_INTERVAL_S = 0.005

#: Executor worker chunks sample coarser: every pool worker runs its
#: own sampler, so per-sample cost multiplies by the worker count (and
#: on small machines the workers already oversubscribe the cores).
WORKER_INTERVAL_S = 0.02

#: Frames from these modules are noise in every stack; pruned so
#: flamegraphs start at the entry point that matters.
_BORING_PREFIXES = ("importlib.", "threading", "concurrent.futures")


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    Reads ``VmHWM`` from ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` (portable, kilobyte granularity); 0 when
    neither source is available.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


# Label cache keyed by code-object id.  Pinning the code object in the
# value keeps the id from being recycled; the cache is bounded by the
# number of distinct code objects ever sampled.
_LABEL_CACHE: Dict[int, Tuple[object, str]] = {}


def _frame_label(frame) -> str:
    code = frame.f_code
    cached = _LABEL_CACHE.get(id(code))
    if cached is not None:
        return cached[1]
    module = frame.f_globals.get("__name__", "?")
    label = f"{module}:{code.co_name}"
    _LABEL_CACHE[id(code)] = (code, label)
    return label


def _stack_key(frame) -> Optional[str]:
    """Collapse a leaf frame's stack into ``root;...;leaf`` form."""
    labels: List[str] = []
    while frame is not None:
        labels.append(_frame_label(frame))
        frame = frame.f_back
    labels.reverse()
    while labels and labels[0].startswith(_BORING_PREFIXES):
        labels.pop(0)
    if not labels:
        return None
    return ";".join(labels)


class ProfileData:
    """Aggregated output of one profiling session (mergeable, JSONable)."""

    __slots__ = (
        "mode",
        "sampler",
        "interval_s",
        "duration_s",
        "samples",
        "sample_count",
        "peak_rss_bytes",
        "peak_alloc_bytes",
        "stage_alloc_peaks",
        "workers",
    )

    def __init__(self, mode: str = "off", sampler: str = "none",
                 interval_s: float = DEFAULT_INTERVAL_S) -> None:
        self.mode = mode
        self.sampler = sampler
        self.interval_s = interval_s
        self.duration_s = 0.0
        self.samples: Dict[str, int] = {}
        self.sample_count = 0
        self.peak_rss_bytes = 0
        self.peak_alloc_bytes = 0
        self.stage_alloc_peaks: Dict[str, int] = {}
        self.workers: List[dict] = []

    def add_samples(self, samples: Dict[str, int]) -> None:
        """Fold collapsed-stack counts into the aggregate."""
        for key, count in samples.items():
            self.samples[key] = self.samples.get(key, 0) + count
            self.sample_count += count

    def record_stage_alloc(self, label: str, peak: int) -> None:
        """Keep the maximum allocation peak seen for a stage."""
        if peak > self.stage_alloc_peaks.get(label, -1):
            self.stage_alloc_peaks[label] = peak

    def merge_worker(self, data: dict, pid: int) -> None:
        """Fold one worker's shipped-back profile into this session."""
        self.add_samples({
            str(k): int(v) for k, v in data.get("samples", {}).items()
        })
        for label, peak in data.get("stage_alloc_peaks", {}).items():
            self.record_stage_alloc(str(label), int(peak))
        self.peak_rss_bytes = max(
            self.peak_rss_bytes, int(data.get("peak_rss_bytes", 0))
        )
        self.workers.append(
            {
                "pid": pid,
                "sample_count": int(data.get("sample_count", 0)),
                "peak_rss_bytes": int(data.get("peak_rss_bytes", 0)),
                "peak_alloc_bytes": int(data.get("peak_alloc_bytes", 0)),
                "duration_s": float(data.get("duration_s", 0.0)),
            }
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (embedded in manifests / payloads)."""
        return {
            "mode": self.mode,
            "sampler": self.sampler,
            "interval_s": self.interval_s,
            "duration_s": self.duration_s,
            "samples": dict(self.samples),
            "sample_count": self.sample_count,
            "peak_rss_bytes": self.peak_rss_bytes,
            "peak_alloc_bytes": self.peak_alloc_bytes,
            "stage_alloc_peaks": dict(self.stage_alloc_peaks),
            "workers": list(self.workers),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ProfileData":
        """Rebuild from :meth:`to_dict` output (e.g. a ledger entry)."""
        out = cls(
            mode=str(data.get("mode", "off")),
            sampler=str(data.get("sampler", "none")),
            interval_s=float(data.get("interval_s", DEFAULT_INTERVAL_S)),
        )
        out.duration_s = float(data.get("duration_s", 0.0))
        out.samples = {
            str(k): int(v) for k, v in data.get("samples", {}).items()
        }
        out.sample_count = int(
            data.get("sample_count", sum(out.samples.values()))
        )
        out.peak_rss_bytes = int(data.get("peak_rss_bytes", 0))
        out.peak_alloc_bytes = int(data.get("peak_alloc_bytes", 0))
        out.stage_alloc_peaks = {
            str(k): int(v)
            for k, v in data.get("stage_alloc_peaks", {}).items()
        }
        out.workers = list(data.get("workers", []))
        return out


class _ThreadSampler:
    """Wall-clock sampler: a daemon thread walks every thread's stack."""

    kind = "thread"

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: Dict[str, int] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            for thread_id, frame in sys._current_frames().items():
                if thread_id == own_id:
                    continue
                key = _stack_key(frame)
                if key is not None:
                    self.samples[key] = self.samples.get(key, 0) + 1

    def stop(self) -> Dict[str, int]:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
        return self.samples


class _SignalSampler:
    """CPU-weighted sampler via ``setitimer(ITIMER_PROF)`` + SIGPROF.

    The kernel decrements ITIMER_PROF only while the process consumes
    CPU, so sample counts are proportional to CPU time and a blocked
    process costs nothing.  POSIX restricts Python signal handlers to
    the main thread — callers on other threads must use
    :class:`_ThreadSampler` (:class:`ResourceProfiler` auto-selects).
    """

    kind = "signal"

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: Dict[str, int] = {}
        self._previous_handler = None

    def start(self) -> None:
        self._previous_handler = signal.signal(
            signal.SIGPROF, self._on_sample
        )
        signal.setitimer(
            signal.ITIMER_PROF, self.interval_s, self.interval_s
        )

    def _on_sample(self, _signum, frame) -> None:
        key = _stack_key(frame)
        if key is not None:
            self.samples[key] = self.samples.get(key, 0) + 1

    def stop(self) -> Dict[str, int]:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGPROF, self._previous_handler)
        else:
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        return self.samples

    @staticmethod
    def usable() -> bool:
        """Signal sampling needs the main thread and setitimer."""
        return (
            hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )


class ResourceProfiler:
    """One start/stop profiling session for the current process.

    ``sampler`` may be ``"auto"`` (signal when usable, thread
    otherwise), ``"signal"`` or ``"thread"``.  ``mode`` selects what is
    collected: ``cpu`` samples stacks, ``mem`` tracks memory gauges
    (peak RSS always; per-stage allocation peaks via sampled
    tracemalloc probes when ``alloc_probes`` is true), ``all`` does
    both, ``off`` collects nothing (a started ``off`` profiler is a
    cheap no-op so call sites stay unconditional).  Executor workers
    run with ``alloc_probes=False`` — each chunk is a fresh session,
    so first-instance sampling would degenerate into tracing every
    chunk; their memory story is peak RSS.
    """

    def __init__(
        self,
        mode: str = "all",
        sampler: str = "auto",
        interval_s: float = DEFAULT_INTERVAL_S,
        alloc_probes: bool = True,
    ) -> None:
        if mode not in PROFILE_MODES:
            raise ValueError(
                f"unknown profile mode {mode!r}; expected one of "
                f"{PROFILE_MODES}"
            )
        if sampler not in ("auto", "signal", "thread"):
            raise ValueError(f"unknown sampler {sampler!r}")
        self.mode = mode
        self.interval_s = interval_s
        self._sampler_choice = sampler
        self._sampler = None
        self._started_wall = 0.0
        self._alloc_probes = alloc_probes
        self._measured_labels: set = set()
        self._data: Optional[ProfileData] = None
        self._pending_workers: List[Tuple[dict, int]] = []
        self._stage_peaks: Dict[str, int] = {}

    @property
    def sampling_cpu(self) -> bool:
        """Whether this session collects stack samples."""
        return self.mode in ("cpu", "all")

    @property
    def tracking_memory(self) -> bool:
        """Whether this session tracks allocations."""
        return self.mode in ("mem", "all")

    def start(self) -> "ResourceProfiler":
        """Arm the sampler; memory gauges need no arming.

        Deliberately does *not* start tracemalloc: whole-run tracing
        slows allocation-heavy code by an order of magnitude.  Memory
        mode reads peak RSS at :meth:`stop` and lets
        :func:`stage_probe` run sampled first-instance alloc probes.
        """
        self._started_wall = time.perf_counter()
        if self.sampling_cpu:
            if self._sampler_choice == "signal" or (
                self._sampler_choice == "auto" and _SignalSampler.usable()
            ):
                self._sampler = _SignalSampler(self.interval_s)
            else:
                self._sampler = _ThreadSampler(self.interval_s)
            self._sampler.start()
        return self

    def stop(self) -> ProfileData:
        """Disarm, aggregate and publish ``profiler.*`` metrics."""
        data = ProfileData(
            mode=self.mode,
            sampler=self._sampler.kind if self._sampler else "none",
            interval_s=self.interval_s,
        )
        data.duration_s = max(
            0.0, time.perf_counter() - self._started_wall
        )
        if self._sampler is not None:
            data.add_samples(self._sampler.stop())
            self._sampler = None
        if self.tracking_memory:
            # The session-wide alloc peak is the largest sampled stage
            # peak — a lower bound by construction (unprobed code is
            # not traced), which is the price of the ≤5% budget.
            data.peak_alloc_bytes = max(
                self._stage_peaks.values(), default=0
            )
        data.stage_alloc_peaks = dict(self._stage_peaks)
        data.peak_rss_bytes = peak_rss_bytes()
        for worker_data, pid in self._pending_workers:
            data.merge_worker(worker_data, pid)
        self._pending_workers = []
        self._publish_metrics(data)
        self._data = data
        return data

    def absorb(self, worker_data: dict, pid: int) -> None:
        """Queue one worker's profile for merging at :meth:`stop`."""
        self._pending_workers.append((worker_data, pid))

    def record_stage(self, label: str, peak: int) -> None:
        """Record one stage's allocation peak (see :func:`stage_probe`)."""
        if peak > self._stage_peaks.get(label, -1):
            self._stage_peaks[label] = peak

    def alloc_probe(self, label: str):
        """A live probe for ``label``, or the no-op probe.

        Live at most once per stage label per session: deterministic
        stages allocate identically on every repeat, so one traced
        instance yields the same peak as tracing all of them — at
        1/n-th of the tracemalloc cost.  Never live while tracemalloc
        is already tracing (a user's own session, or a nested stage).
        """
        if (
            not self._alloc_probes
            or label in self._measured_labels
            or tracemalloc.is_tracing()
        ):
            return _NULL_PROBE
        self._measured_labels.add(label)
        return _StageProbe(label, self)

    @staticmethod
    def _publish_metrics(data: ProfileData) -> None:
        # Always-live instrument handles: the CLI snapshots metrics
        # after obs is disabled, when the gated helpers already no-op.
        obs_metrics.counter("profiler.samples").add(data.sample_count)
        obs_metrics.gauge("profiler.peak_rss_bytes").set(
            float(data.peak_rss_bytes)
        )
        obs_metrics.gauge("profiler.peak_alloc_bytes").set(
            float(data.peak_alloc_bytes)
        )


# ---------------------------------------------------------------------------
# Module-level session: one active profiler per process, so call sites
# (CLI, executor workers, stage probes) don't thread a handle through.

_ACTIVE: Optional[ResourceProfiler] = None


def start_session(
    mode: str,
    interval_s: float = DEFAULT_INTERVAL_S,
) -> Optional[ResourceProfiler]:
    """Start the process-wide profiling session (``off`` -> ``None``).

    The executor reads the session's mode to profile its pool workers,
    so starting one is all a caller does to profile a parallel sweep.
    """
    global _ACTIVE
    if mode == "off":
        return None
    if _ACTIVE is not None:
        end_session()
    _ACTIVE = ResourceProfiler(mode=mode, interval_s=interval_s).start()
    return _ACTIVE


def end_session() -> Optional[ProfileData]:
    """Stop the active session, if any, and return its data."""
    global _ACTIVE
    if _ACTIVE is None:
        return None
    session, _ACTIVE = _ACTIVE, None
    return session.stop()


def active_session() -> Optional[ResourceProfiler]:
    """The process-wide active profiler, or ``None``."""
    return _ACTIVE


def clear_inherited_session() -> None:
    """Disarm the profiling state a fork-started pool worker inherits.

    A forked worker inherits the parent's active session: its samplers
    are dead in the child (threads don't survive fork, timers do not
    rearm), but its alloc probes would still arm tracemalloc around
    worker stages — taxing exactly the hot code the budget protects.
    A tracemalloc an alloc probe had live at fork time would tax every
    chunk the worker runs, so it is stopped first.  The session is
    dropped without stopping it.
    """
    global _ACTIVE
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    _ACTIVE = None


def absorb_worker_profile(worker_data: dict, pid: int) -> None:
    """Fold a shipped-back worker profile into the active session.

    Silently drops the data when no session is active (e.g. profiling
    enabled in workers but the parent exited its session early).
    """
    if _ACTIVE is not None:
        _ACTIVE.absorb(worker_data, pid)


class _NullProbe:
    __slots__ = ()

    def __enter__(self) -> "_NullProbe":
        return self

    def __exit__(self, *_exc: object) -> None:
        return None


_NULL_PROBE = _NullProbe()


class _StageProbe:
    """Brackets one sampled stage instance under its own tracemalloc.

    Tracing starts on entry and stops on exit, so only the measured
    instance pays the (order-of-magnitude) tracemalloc tax; the
    high-water mark between the two calls is the stage's allocation
    peak.
    """

    __slots__ = ("_label", "_session", "_owns")

    def __init__(self, label: str, session: ResourceProfiler) -> None:
        self._label = label
        self._session = session
        self._owns = False

    def __enter__(self) -> "_StageProbe":
        self._owns = not tracemalloc.is_tracing()
        if self._owns:
            tracemalloc.start()
        tracemalloc.reset_peak()
        return self

    def __exit__(self, *_exc: object) -> None:
        if tracemalloc.is_tracing():
            self._session.record_stage(
                self._label, tracemalloc.get_traced_memory()[1]
            )
            if self._owns:
                tracemalloc.stop()


def stage_probe(label: str):
    """Per-stage allocation-peak probe; single-branch no-op when
    memory tracking is inactive, and live only for the first instance
    of each stage label (see :meth:`ResourceProfiler.alloc_probe`)."""
    session = _ACTIVE
    if session is None or not session.tracking_memory:
        return _NULL_PROBE
    return session.alloc_probe(label)


# ---------------------------------------------------------------------------
# Exporters: collapsed stacks, flamegraph HTML, hottest spans/frames.


def collapsed_stacks(samples: Dict[str, int]) -> str:
    """Samples in Brendan Gregg's collapsed format (``a;b;c count``)."""
    return "\n".join(
        f"{key} {count}" for key, count in sorted(samples.items())
    )


def _build_tree(samples: Dict[str, int]) -> dict:
    root = {"name": "all", "value": 0, "children": {}}
    for key, count in samples.items():
        root["value"] += count
        node = root
        for label in key.split(";"):
            child = node["children"].get(label)
            if child is None:
                child = {"name": label, "value": 0, "children": {}}
                node["children"][label] = child
            child["value"] += count
            node = child
    return root


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


_FLAME_STYLE = """
body { font: 12px monospace; background: #fff; margin: 12px; }
.frame { position: relative; box-sizing: border-box; overflow: hidden;
  white-space: nowrap; text-overflow: ellipsis; height: 17px;
  border: 1px solid #fff; border-radius: 2px; cursor: pointer;
  padding: 1px 3px; }
.frame:hover { border-color: #000; }
.row { display: flex; }
h1 { font-size: 15px; }
#meta { color: #555; margin-bottom: 8px; }
"""

_FLAME_SCRIPT = """
document.addEventListener('click', function (event) {
  var el = event.target.closest('.frame');
  if (!el) return;
  event.stopPropagation();
  document.getElementById('meta').textContent = el.title;
});
"""


def _palette(depth: int) -> str:
    colors = ("#e5793a", "#eda53b", "#f2c74e", "#d9883d", "#e0663c")
    return colors[depth % len(colors)]


def _render_node(node: dict, total: int, depth: int,
                 parts: List[str]) -> None:
    width = 100.0 * node["value"] / total if total else 0.0
    if width < 0.05:
        return
    label = _escape(node["name"])
    pct = 100.0 * node["value"] / total if total else 0.0
    parts.append(
        f'<div class="frame" style="width:{width:.4f}%;'
        f'background:{_palette(depth)}" '
        f'title="{label} — {node["value"]} samples ({pct:.1f}%)">'
        f"{label}"
    )
    children = sorted(
        node["children"].values(), key=lambda c: (-c["value"], c["name"])
    )
    if children:
        parts.append('<div class="row">')
        for child in children:
            _render_node(child, node["value"], depth + 1, parts)
        # Self-time spacer keeps child widths proportional to the
        # parent frame, not to the sum of the children.
        self_value = node["value"] - sum(c["value"] for c in children)
        if self_value > 0 and node["value"]:
            spacer = 100.0 * self_value / node["value"]
            parts.append(
                f'<div style="width:{spacer:.4f}%"></div>'
            )
        parts.append("</div>")
    parts.append("</div>")


def flamegraph_html(
    samples: Dict[str, int], title: str = "repro profile"
) -> str:
    """A self-contained (no-dependency) HTML flamegraph document."""
    tree = _build_tree(samples)
    body: List[str] = []
    if tree["value"]:
        # Children-widths are relative to the parent row, so render the
        # synthetic root at 100% and recurse.
        _render_node(tree, tree["value"], 0, body)
    else:
        body.append("<p>no samples collected</p>")
    total = tree["value"]
    return (
        "<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
        f"<title>{_escape(title)}</title>"
        f"<style>{_FLAME_STYLE}</style></head><body>"
        f"<h1>{_escape(title)}</h1>"
        f"<div id='meta'>{total} samples, "
        f"{len(samples)} distinct stacks</div>"
        + "".join(body)
        + f"<script>{_FLAME_SCRIPT}</script></body></html>"
    )


def top_frames(samples: Dict[str, int], n: int = 10) -> List[dict]:
    """The ``n`` hottest frames by self samples (leaf attribution)."""
    self_counts: Dict[str, int] = {}
    total_counts: Dict[str, int] = {}
    for key, count in samples.items():
        frames = key.split(";")
        leaf = frames[-1]
        self_counts[leaf] = self_counts.get(leaf, 0) + count
        for frame in set(frames):
            total_counts[frame] = total_counts.get(frame, 0) + count
    ranked = sorted(
        self_counts.items(), key=lambda item: (-item[1], item[0])
    )
    return [
        {
            "frame": frame,
            "self_samples": self_count,
            "total_samples": total_counts.get(frame, self_count),
        }
        for frame, self_count in ranked[:n]
    ]


def top_manifest_series(manifest: dict, n: int = 10) -> List[dict]:
    """The ``n`` hottest span series of a recorded manifest.

    ``repro obs top`` works against the run-history ledger, which
    stores per-name ``span.<name>.wall_seconds`` histograms rather
    than raw span forests; total wall time per series is recovered as
    ``mean * count``.
    """
    histograms = manifest.get("metrics", {}).get("histograms", {})
    entries: List[dict] = []
    for name, stats in histograms.items():
        if not (name.startswith("span.")
                and name.endswith(".wall_seconds")):
            continue
        calls = int(stats.get("count", 0) or 0)
        if not calls:
            continue
        mean = float(stats.get("mean", 0.0) or 0.0)
        entries.append(
            {
                "name": name[len("span."):-len(".wall_seconds")],
                "calls": calls,
                "wall_s": mean * calls,
                "mean_s": mean,
            }
        )
    entries.sort(key=lambda entry: (-entry["wall_s"], entry["name"]))
    return entries[:n]
