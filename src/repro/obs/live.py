"""Live telemetry hub: streaming sweep state while work is in flight.

Every other obs surface (spans, manifests, the ledger, OpenMetrics
files, flamegraphs) is post-hoc: it exists only after the run ends.
During a multi-minute sweep the parent is blind between chunk returns,
and a hung pool worker is indistinguishable from a slow one.  The
*live hub* closes that gap:

* :class:`SweepTracker` — completed/total per sweep with an EWMA
  throughput estimate and an ETA, fed by :mod:`repro.obs.progress`.
* **Worker heartbeats** — executor pool workers push incremental
  events (chunk start/finish, per-pair completions, pid/RSS snapshots)
  *during* execution.  Pool worker processes send through a
  ``multiprocessing`` manager queue (:class:`WorkerChannel`) that a
  parent daemon thread drains into the hub; a ``jobs=1`` sweep runs
  its chunks in-process and calls the hub directly.
* **Stall detection** — a worker silent past ``stall_threshold_s``
  flips the ``executor.worker.stalled`` gauge and emits a structured
  ``worker.stalled`` event (detection only; nothing is killed).
* **Event stream** — a bounded ring buffer plus fan-out subscriber
  queues back the ``/events`` SSE endpoint of
  :mod:`repro.obs.httpd`.

Zero-cost when off: the hub is ``None`` until :func:`activate` is
called (the CLI does so for ``--serve-port``), and every call site
gates on a single ``active_hub() is not None`` branch.  The hub only
*observes* — events never touch the result path, so report digests
with the hub enabled are bit-identical to hub-off runs (enforced by
``benchmarks/bench_live_overhead.py`` and the CI ``live-scrape`` job).

Fork safety: a fork-started pool worker inherits the parent's module
globals, including an active hub whose monitor thread did *not*
survive the fork.  Workers must therefore call
:func:`clear_inherited_hub` first (the executor does) and report only
through their telemetry queue; otherwise they would fold events into a
dead-end private hub copy.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

from repro.obs import metrics as obs_metrics

__all__ = [
    "LiveHub",
    "SweepTracker",
    "WorkerChannel",
    "activate",
    "deactivate",
    "active_hub",
    "hub_active",
    "clear_inherited_hub",
    "emit_worker_event",
    "current_rss_bytes",
    "DEFAULT_STALL_THRESHOLD_S",
]

#: Seconds of worker silence before the stall gauge flips.
DEFAULT_STALL_THRESHOLD_S = 5.0

#: Environment override for the stall threshold.
STALL_THRESHOLD_ENV = "REPRO_STALL_THRESHOLD"

#: Ring-buffer capacity for recent events (SSE replay window).
DEFAULT_MAX_EVENTS = 512

#: Per-subscriber queue bound; a slow SSE client drops events rather
#: than blocking the hub.
_SUBSCRIBER_QUEUE_SIZE = 1024

#: EWMA smoothing factor for the throughput estimate.
_EWMA_ALPHA = 0.3

#: Minimum seconds of completions folded into one EWMA rate update.
#: Chunk results land in bursts (every pair in a chunk "completes"
#: microseconds apart when the parent collects it), so a per-event
#: rate would be wildly inflated; windowing measures real throughput.
_RATE_WINDOW_S = 0.25


def current_rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Reads ``VmRSS`` from ``/proc/self/status`` (Linux); 0 when the
    file is unavailable (the value is advisory telemetry only).
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return 0


class SweepTracker:
    """Progress state of one named sweep: counts, rate, ETA.

    ``advance`` maintains an exponentially weighted moving average of
    the instantaneous completion rate, so the ETA tracks the *current*
    throughput (cheap analytic pairs early, expensive trace pairs
    late) instead of the lifetime mean.  The clock is injectable for
    deterministic tests.
    """

    __slots__ = (
        "label", "total", "done", "started", "_clock",
        "_window_start", "_window_amount", "_rate",
    )

    def __init__(
        self,
        label: str,
        total: int,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.label = label
        self.total = max(int(total), 0)
        self.done = 0
        self._clock = clock
        self.started = clock()
        self._window_start = self.started
        self._window_amount = 0
        self._rate = 0.0

    def advance(self, amount: int = 1) -> None:
        """Record ``amount`` completions (clamped to ``total``)."""
        if amount <= 0:
            return
        self.done = min(self.done + amount, self.total) if self.total \
            else self.done + amount
        now = self._clock()
        self._window_amount += amount
        window = now - self._window_start
        if window >= _RATE_WINDOW_S:
            instantaneous = self._window_amount / window
            if self._rate <= 0.0:
                self._rate = instantaneous
            else:
                self._rate = (
                    _EWMA_ALPHA * instantaneous
                    + (1.0 - _EWMA_ALPHA) * self._rate
                )
            self._window_start = now
            self._window_amount = 0

    @property
    def rate_per_second(self) -> float:
        """Windowed-EWMA completions per second; falls back to the
        lifetime mean while the first window is still open."""
        if self._rate > 0.0:
            return self._rate
        elapsed = self.elapsed_s()
        return self.done / elapsed if elapsed > 0.0 and self.done else 0.0

    def elapsed_s(self) -> float:
        """Seconds since the tracker was created."""
        return max(self._clock() - self.started, 0.0)

    def percent(self) -> float:
        """Completion percentage in [0, 100] (100 for ``total == 0``)."""
        if not self.total:
            return 100.0
        return 100.0 * self.done / self.total

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion; ``None`` when unknowable."""
        rate = self.rate_per_second
        if not self.total or self.done >= self.total or rate <= 0.0:
            return None
        return (self.total - self.done) / rate

    def snapshot(self) -> dict:
        """JSON-serializable progress state."""
        eta = self.eta_seconds()
        return {
            "label": self.label,
            "done": self.done,
            "total": self.total,
            "percent": round(self.percent(), 2),
            "rate_per_second": round(self.rate_per_second, 4),
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "elapsed_seconds": round(self.elapsed_s(), 3),
        }


class _WorkerState:
    """Liveness record for one pool worker pid."""

    __slots__ = (
        "pid", "first_seen", "last_heartbeat", "chunk", "pairs_done",
        "rss_bytes", "events", "stalled",
    )

    def __init__(self, pid: int, now: float) -> None:
        self.pid = pid
        self.first_seen = now
        self.last_heartbeat = now
        self.chunk: Optional[int] = None
        self.pairs_done = 0
        self.rss_bytes = 0
        self.events = 0
        self.stalled = False

    def snapshot(self, now: float) -> dict:
        return {
            "pid": self.pid,
            "chunk": self.chunk,
            "pairs_done": self.pairs_done,
            "rss_bytes": self.rss_bytes,
            "events": self.events,
            "heartbeat_age_seconds": round(
                max(now - self.last_heartbeat, 0.0), 3
            ),
            "stalled": self.stalled,
        }


class LiveHub:
    """Thread-safe registry of live sweep/worker state plus an event bus.

    The parent process owns exactly one hub (module singleton managed
    by :func:`activate` / :func:`deactivate`).  Everything it publishes
    is advisory: metrics go through always-live instrument handles so
    they appear in ``/metrics`` scrapes regardless of the ``--obs``
    mode, and events fan out to SSE subscribers without ever touching
    the profiling result path.
    """

    def __init__(
        self,
        stall_threshold_s: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        if stall_threshold_s is None:
            raw = os.environ.get(STALL_THRESHOLD_ENV, "")
            try:
                stall_threshold_s = float(raw)
            except ValueError:
                stall_threshold_s = DEFAULT_STALL_THRESHOLD_S
            if stall_threshold_s <= 0:
                stall_threshold_s = DEFAULT_STALL_THRESHOLD_S
        self.stall_threshold_s = float(stall_threshold_s)
        self._clock = clock
        self._lock = threading.RLock()
        self._events: deque = deque(maxlen=max_events)
        self._seq = 0
        self._subscribers: List[queue.Queue] = []
        self._sweeps: Dict[str, SweepTracker] = {}
        self._workers: Dict[int, _WorkerState] = {}
        self._inflight: Dict[int, int] = {}  # chunk index -> pair count
        self.started_at = time.time()

    # -- sweep progress (fed by repro.obs.progress) ---------------------

    def sweep_started(self, label: str, total: int) -> SweepTracker:
        """Register (or restart) the tracker for one sweep label."""
        tracker = SweepTracker(label, total, clock=self._clock)
        with self._lock:
            self._sweeps[label] = tracker
        self._publish_progress(tracker)
        self.publish("sweep.start", label=label, total=tracker.total)
        return tracker

    def sweep_advanced(self, tracker: SweepTracker, amount: int = 1) -> None:
        """Fold ``amount`` completions into the tracker's gauges."""
        tracker.advance(amount)
        self._publish_progress(tracker)

    def sweep_closed(self, tracker: SweepTracker) -> None:
        """Mark one sweep finished and emit its terminal event."""
        self._publish_progress(tracker)
        self.publish(
            "sweep.close",
            label=tracker.label,
            done=tracker.done,
            total=tracker.total,
            elapsed_seconds=round(tracker.elapsed_s(), 3),
        )
        with self._lock:
            if self._sweeps.get(tracker.label) is tracker:
                del self._sweeps[tracker.label]

    def _publish_progress(self, tracker: SweepTracker) -> None:
        # Always-live handles: the live endpoints must see progress
        # even when span tracing is off (gated helpers would no-op).
        obs_metrics.gauge("progress.completed").set(tracker.done)
        obs_metrics.gauge("progress.total").set(tracker.total)
        obs_metrics.gauge("progress.percent").set(tracker.percent())
        obs_metrics.gauge("progress.rate_per_second").set(
            tracker.rate_per_second
        )
        eta = tracker.eta_seconds()
        if eta is not None:
            obs_metrics.gauge("progress.eta_seconds").set(eta)

    # -- chunk dispatch bookkeeping (parent side) -----------------------

    def chunk_submitted(self, chunk_index: int, pairs: int) -> None:
        """Record one chunk handed to the pool (parent side)."""
        with self._lock:
            self._inflight[chunk_index] = pairs
        obs_metrics.gauge("executor.chunks.inflight").set(
            len(self._inflight)
        )

    def chunk_collected(self, chunk_index: int) -> None:
        """Record one chunk's results folded back in (parent side)."""
        with self._lock:
            self._inflight.pop(chunk_index, None)
        obs_metrics.gauge("executor.chunks.inflight").set(
            len(self._inflight)
        )

    # -- worker events --------------------------------------------------

    def ingest(self, event: dict) -> None:
        """Fold one worker event into the live state and publish it.

        Events are plain dicts with at least ``kind`` and ``pid``.
        A pool worker's counters do not come this way: they ride back
        with its chunk's results (see :mod:`repro.perf.executor`).
        """
        kind = str(event.get("kind", "?"))
        pid = int(event.get("pid", 0))
        now = self._clock()
        recovered = False
        with self._lock:
            state = self._workers.get(pid)
            if state is None:
                state = self._workers[pid] = _WorkerState(pid, now)
            state.last_heartbeat = now
            state.events += 1
            if state.stalled:
                state.stalled = False
                recovered = True
            if "rss_bytes" in event:
                state.rss_bytes = int(event["rss_bytes"])
            if kind == "chunk.start":
                state.chunk = event.get("chunk")
            elif kind == "chunk.done":
                state.chunk = None
            elif kind in ("pair.done", "pair.error"):
                state.pairs_done += 1
        if "rss_bytes" in event:
            obs_metrics.gauge("executor.worker.rss_bytes").set(
                int(event["rss_bytes"])
            )
        obs_metrics.gauge("executor.workers.seen").set(len(self._workers))
        if recovered:
            self._set_stall_gauge()
            self.publish("worker.recovered", pid=pid)
        self.publish(kind, **{
            key: value for key, value in event.items() if key != "kind"
        })

    # -- stall detection ------------------------------------------------

    def check_stalls(self) -> List[int]:
        """Flag workers silent past the threshold; returns new stalls.

        Detection only: the gauge ``executor.worker.stalled`` counts
        currently-stalled workers and a ``worker.stalled`` event is
        emitted once per transition.  Nothing is killed — a stalled
        worker that heartbeats again is marked recovered by
        :meth:`ingest`.
        """
        now = self._clock()
        newly_stalled: List[int] = []
        with self._lock:
            for state in self._workers.values():
                if state.chunk is None or state.stalled:
                    continue
                age = now - state.last_heartbeat
                if age > self.stall_threshold_s:
                    state.stalled = True
                    newly_stalled.append(state.pid)
        if newly_stalled:
            self._set_stall_gauge()
            for pid in newly_stalled:
                with self._lock:
                    state = self._workers.get(pid)
                    age = (
                        now - state.last_heartbeat if state is not None
                        else self.stall_threshold_s
                    )
                self.publish(
                    "worker.stalled",
                    pid=pid,
                    silent_seconds=round(age, 3),
                    threshold_seconds=self.stall_threshold_s,
                )
        return newly_stalled

    def _set_stall_gauge(self) -> None:
        with self._lock:
            stalled = sum(1 for s in self._workers.values() if s.stalled)
        obs_metrics.gauge("executor.worker.stalled").set(stalled)

    # -- event bus ------------------------------------------------------

    def publish(self, kind: str, **fields: object) -> dict:
        """Append one event to the ring and fan it out to subscribers."""
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "kind": kind, "ts": time.time()}
            event.update(fields)
            self._events.append(event)
            subscribers = list(self._subscribers)
        for subscriber in subscribers:
            try:
                subscriber.put_nowait(event)
            except queue.Full:
                pass  # slow consumer: drop rather than block the hub
        return event

    def subscribe(self, replay: bool = True) -> "queue.Queue":
        """A queue receiving every future event (and the ring, with
        ``replay``)."""
        subscriber: queue.Queue = queue.Queue(_SUBSCRIBER_QUEUE_SIZE)
        with self._lock:
            if replay:
                for event in self._events:
                    subscriber.put_nowait(event)
            self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: "queue.Queue") -> None:
        """Detach one subscriber queue."""
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def recent_events(self, limit: Optional[int] = None) -> List[dict]:
        """The newest ring-buffer events, oldest first."""
        with self._lock:
            events = list(self._events)
        if limit is not None:
            events = events[-max(int(limit), 0):]
        return events

    # -- status ---------------------------------------------------------

    def status(self) -> dict:
        """One consistent JSON-serializable view of the live state."""
        now = self._clock()
        with self._lock:
            sweeps = [t.snapshot() for t in self._sweeps.values()]
            workers = [
                s.snapshot(now)
                for s in sorted(self._workers.values(), key=lambda s: s.pid)
            ]
            inflight = dict(sorted(self._inflight.items()))
            events_seen = self._seq
        gauges = obs_metrics.snapshot(prefix=(
            "trace_cache.", "executor.", "profiler.", "progress.",
        ))
        return {
            "active": bool(sweeps or inflight),
            "pid": os.getpid(),
            "started_at": self.started_at,
            "stall_threshold_seconds": self.stall_threshold_s,
            "sweeps": sweeps,
            "workers": workers,
            "inflight_chunks": {str(k): v for k, v in inflight.items()},
            "events_seen": events_seen,
            "counters": gauges["counters"],
            "gauges": gauges["gauges"],
        }


class _StallMonitor(threading.Thread):
    """Daemon thread calling :meth:`LiveHub.check_stalls` periodically."""

    def __init__(self, hub: LiveHub, interval_s: float) -> None:
        super().__init__(name="repro-obs-stall-monitor", daemon=True)
        self._hub = hub
        self._interval_s = interval_s
        # Not named _stop: threading.Thread owns a private _stop()
        # method that fork/join internals call.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            try:
                self._hub.check_stalls()
            except Exception:
                # The monitor must never take a run down.
                pass

    def stop(self) -> None:
        self._halt.set()


class WorkerChannel:
    """Parent-side telemetry side-channel for executor pool workers.

    Wraps a ``multiprocessing`` manager queue (proxies pickle cleanly
    through ``ProcessPoolExecutor`` payloads under every start method)
    plus a daemon drain thread folding worker events into the hub.
    The channel exists only while a sweep runs with the hub active, so
    hub-off sweeps never pay the manager process.
    """

    def __init__(self, hub: LiveHub) -> None:
        import multiprocessing

        self._hub = hub
        self._manager = multiprocessing.Manager()
        self.queue = self._manager.Queue()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._drain, name="repro-obs-telemetry-drain", daemon=True
        )
        self._thread.start()

    def _drain(self) -> None:
        while True:
            try:
                event = self.queue.get(timeout=0.1)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            except (EOFError, OSError, ConnectionError):
                return  # manager shut down underneath us
            if event is None:
                return
            try:
                self._hub.ingest(event)
            except Exception:
                pass  # telemetry must never take the sweep down

    def close(self) -> None:
        """Drain remaining events, stop the thread, shut the manager."""
        self._stop.set()
        try:
            self.queue.put(None)
        except Exception:
            pass
        self._thread.join(timeout=2.0)
        try:
            self._manager.shutdown()
        except Exception:
            pass


def emit_worker_event(channel, kind: str, **fields: object) -> None:
    """Send one event from inside a pool worker; never raises.

    ``channel`` is the manager-queue proxy from the chunk payload
    (pool worker) or ``None`` (an in-process ``jobs=1`` chunk or a
    single-pair profile), in which case the event goes straight to the
    in-process hub.  Events carry
    the worker pid; timestamps are assigned hub-side at ingest.
    """
    event = {"kind": kind, "pid": os.getpid()}
    event.update(fields)
    if channel is not None:
        try:
            channel.put_nowait(event)
        except Exception:
            pass  # full/closed queue: telemetry is best-effort
        return
    hub = _HUB
    if hub is not None:
        hub.ingest(event)


_HUB: Optional[LiveHub] = None
_MONITOR: Optional[_StallMonitor] = None
_LOCK = threading.Lock()


def activate(
    stall_threshold_s: Optional[float] = None,
    clock: Callable[[], float] = time.monotonic,
    monitor: bool = True,
) -> LiveHub:
    """Install the process-wide hub (idempotent) and return it.

    ``monitor=False`` skips the background stall-check thread (tests
    drive :meth:`LiveHub.check_stalls` directly for determinism).
    """
    global _HUB, _MONITOR
    with _LOCK:
        if _HUB is not None:
            return _HUB
        hub = LiveHub(stall_threshold_s=stall_threshold_s, clock=clock)
        _HUB = hub
        if monitor:
            interval = min(max(hub.stall_threshold_s / 4.0, 0.05), 1.0)
            _MONITOR = _StallMonitor(hub, interval)
            _MONITOR.start()
        return hub


def deactivate() -> None:
    """Remove the hub and stop its monitor thread (idempotent)."""
    global _HUB, _MONITOR
    with _LOCK:
        monitor = _MONITOR
        _HUB = None
        _MONITOR = None
    if monitor is not None:
        monitor.stop()
        # Join so a tick in flight cannot write the stall gauge into a
        # registry that is reset right after deactivation.
        if monitor.is_alive():
            monitor.join(timeout=2.0)


def active_hub() -> Optional[LiveHub]:
    """The process-wide hub, or ``None`` while live telemetry is off."""
    return _HUB


def hub_active() -> bool:
    """Single-branch check used by instrumented call sites."""
    return _HUB is not None


def clear_inherited_hub() -> None:
    """Drop a fork-inherited hub inside a pool worker.

    The inherited copy's monitor thread did not survive the fork and
    its subscriber queues lead nowhere; a worker reporting into it
    would be talking to itself.  Workers report through their
    telemetry queue instead (see :func:`emit_worker_event`).
    """
    global _HUB, _MONITOR
    _HUB = None
    _MONITOR = None
