"""Parallel profiling executor with deterministic batching.

The paper's measurement sweep — 80 workloads x 7 machines x 2 engines —
is embarrassingly parallel: every (workload, machine) pair is an
independent, deterministic computation.  :class:`ProfilingExecutor`
fans a pair list out over a ``concurrent.futures`` thread or process
pool in fixed-size chunks — grouped by workload
(:func:`workload_chunks`) so a pool worker synthesizes each shared
trace at most once — and reassembles the results **by input index**.
Chunk payloads are built lazily and at most ``jobs *
_CHUNKS_PER_WORKER`` chunks are in flight at once, so a
campaign-scale sweep (tens of thousands of pending pairs) holds a
bounded window of payload tuples rather than all of them.  Results are
so the output is identical to the serial sweep regardless of worker
count, chunk size, backend or completion order (see DESIGN.md,
"Parallel execution & caching").

Interplay with the caches: the main process probes the profiler's
memory and disk caches first and only dispatches the remaining pairs;
workers compute raw reports (no cache access), and every cache write
happens in the main process through the disk cache's atomic-rename
path.  A cancelled or crashed sweep therefore never leaves a partial
cache entry behind.

Both the serial path and the pool workers hand each workload's run of
machines to :func:`~repro.perf.profiler.compute_reports` in one call,
so the trace engine replays it as one fused batch.

Failure handling: a run that raises is reported as a
:class:`~repro.errors.ExecutionError` naming every
``workload@machine`` pair it carried, with the worker traceback
attached; the remaining chunks are cancelled.

Observability: the sweep runs under an ``executor.sweep`` span whose
:class:`~repro.obs.trace.TraceContext` is serialized into every chunk
payload.  Thread-backend workers re-attach their ``executor.chunk``
spans to the live sweep span; process-backend workers record spans
into a local buffer (``begin_remote_capture``) that is shipped back
with the chunk results and merged under the sweep span in chunk-index
order, so ``--trace-out`` shows per-worker swim-lanes either way.  The
pool exports ``executor.pool.jobs`` / ``executor.pool.inflight`` /
``executor.pool.peak_inflight`` gauges (the peak is capped by the
submission window), ``executor.tasks.{completed,from_cache}`` /
``executor.spans.adopted`` counters and a
``profiler.queue_wait_seconds`` histogram (submit-to-start latency per
chunk), so speedup and saturation are attributable from a trace alone.
"""

from __future__ import annotations

import math
import os
import time
import traceback
import tracemalloc
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ExecutionError
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs import profiling as obs_profiling
from repro.obs import trace as obs_trace
from repro.obs.progress import progress as obs_progress
from repro.obs.trace import Span, TraceContext, span
from repro.perf.counters import CounterReport
from repro.perf.diskcache import content_fingerprint
from repro.perf.profiler import Profiler, compute_reports, pair_key
from repro.uarch.machine import MachineConfig, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = ["ProfilingExecutor", "chunk_spans", "workload_chunks", "BACKENDS"]

#: Supported pool backends ("serial" bypasses the pool entirely).
BACKENDS = ("serial", "thread", "process")

#: Target number of chunks per worker; >1 smooths load imbalance
#: between cheap (analytic) and expensive (trace) pairs.
_CHUNKS_PER_WORKER = 4

Pair = Tuple[WorkloadSpec, MachineConfig]

# Worker payload: the chunk index (results are reassembled by it,
# deterministically), the engine parameters, the chunk's pairs, the
# sweep's trace context (or None while tracing is off), the submitting
# process's pid (lets a worker tell process from thread dispatch even
# when tracing is off), the resource profile mode for process workers,
# the live-telemetry queue proxy (or None while the hub is off /
# backend is threaded), and the submit-time wall clock for the
# queue-wait histogram.
_ChunkPayload = Tuple[
    int, str, int, int, List[Pair],
    Optional[TraceContext], int, str, Optional[object], Optional[float],
]


def chunk_spans(n_tasks: int, jobs: int, chunk_size: Optional[int] = None) -> List[range]:
    """Split ``range(n_tasks)`` into contiguous, ordered chunks.

    The split depends only on ``(n_tasks, jobs, chunk_size)`` — never on
    timing — so a sweep is batched identically on every run.
    """
    if n_tasks < 0:
        raise ConfigurationError("n_tasks must be >= 0")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if chunk_size is None:
        chunk_size = max(1, math.ceil(n_tasks / (jobs * _CHUNKS_PER_WORKER)))
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    return [
        range(start, min(start + chunk_size, n_tasks))
        for start in range(0, n_tasks, chunk_size)
    ]


def workload_chunks(
    pending: Sequence[Pair], jobs: int, chunk_size: Optional[int] = None
) -> List[List[int]]:
    """Chunk pending pairs with same-workload pairs kept adjacent.

    Returns index lists into ``pending``: indices are regrouped by
    workload (stable first-appearance order; within a workload the
    input order is kept) and then sliced into :func:`chunk_spans`-sized
    chunks.  Same-workload pairs landing in the same chunk lets a pool
    worker synthesize each shared trace once and replay it for every
    machine in the chunk — without grouping, a machine-major design
    sweep interleaves workloads so every process worker re-synthesizes
    every trace.  The regrouping is a pure dispatch-order permutation:
    results are reassembled by input index, so it can never change a
    sweep's output, and it depends only on the pending list and
    ``(jobs, chunk_size)`` — never on timing.
    """
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if chunk_size is None:
        chunk_size = max(
            1, math.ceil(len(pending) / (jobs * _CHUNKS_PER_WORKER))
        )
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    groups: Dict[Tuple[str, str], List[int]] = {}
    order: List[Tuple[str, str]] = []
    for index, (spec, _config) in enumerate(pending):
        key = (spec.name, content_fingerprint(spec))
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(index)
    ordered = [index for key in order for index in groups[key]]
    return [
        ordered[start:start + chunk_size]
        for start in range(0, len(ordered), chunk_size)
    ]


def _pair_label(spec: WorkloadSpec, config: MachineConfig) -> str:
    return f"{spec.name}@{config.name}"


def _workload_runs(
    pairs: Sequence[Pair],
) -> List[Tuple[WorkloadSpec, List[MachineConfig]]]:
    """Split ``pairs`` into maximal runs of adjacent same-workload pairs.

    Each run is one :func:`compute_reports` call; callers order pairs
    workload-major (:func:`workload_chunks`) so a run carries a
    workload's whole machine batch.
    """
    runs: List[Tuple[WorkloadSpec, List[MachineConfig]]] = []
    for spec, config in pairs:
        if runs and runs[-1][0] == spec:
            runs[-1][1].append(config)
        else:
            runs.append((spec, [config]))
    return runs


def _profile_chunk(
    payload: _ChunkPayload,
) -> Tuple[int, List[Tuple[str, object]], dict]:
    """Compute one chunk of pairs; runs inside a pool worker.

    Returns ``(chunk_index, outcomes, extras)`` where each outcome is
    ``("ok", report)`` or ``("err", label, traceback_text)`` — errors
    are marshalled as strings because not every exception survives
    pickling back from a process worker.  ``extras`` carries the
    worker's observability sidecar: queue-wait seconds, serialized
    spans plus an optional resource profile when the worker runs in a
    separate process, and the worker pid.
    """
    (
        chunk_index,
        engine,
        trace_instructions,
        seed,
        pairs,
        context,
        parent_pid,
        profile_mode,
        telemetry,
        submitted_wall,
    ) = payload
    queue_wait = (
        max(0.0, time.perf_counter() - submitted_wall)
        if submitted_wall is not None
        else None
    )
    remote = os.getpid() != parent_pid
    capturing = remote and context is not None
    chunk_profiler = None
    if remote:
        # A fork-started worker inherits the parent process's state:
        # if an alloc probe's tracemalloc was live at fork time it
        # would silently tax this worker's entire chunk, so disarm it —
        # and drop the inherited profiler session so parent alloc
        # probes can't re-arm tracemalloc around worker stages.
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        obs_profiling.clear_inherited_session()
        # Same hazard for the live hub: the inherited copy's monitor
        # thread is dead and its subscribers lead nowhere.  Workers
        # report through the telemetry queue only.
        obs_live.clear_inherited_hub()
        if capturing:
            # The inherited state also includes the parent tracer's
            # enabled flag and accumulated roots; begin_remote_capture
            # resets to a clean local buffer parented at the sweep span.
            obs_trace.begin_remote_capture(context)
        if profile_mode != "off":
            # Pool tasks run on the worker's main thread, but SIGPROF
            # delivery in short-lived chunks is needlessly fragile; the
            # thread sampler is the documented choice for workers.
            # Alloc probes stay off: each chunk is a fresh session, so
            # first-instance sampling would trace every chunk.
            chunk_profiler = obs_profiling.ResourceProfiler(
                mode=profile_mode,
                sampler="thread",
                interval_s=obs_profiling.WORKER_INTERVAL_S,
                alloc_probes=False,
            )
            chunk_profiler.start()
        opener = span("executor.chunk", chunk=chunk_index, pairs=len(pairs))
    elif context is not None:
        opener = obs_trace.child_span(
            "executor.chunk",
            parent=obs_trace.resolve_live_span(context.span_id),
            chunk=chunk_index,
            pairs=len(pairs),
        )
    else:
        opener = span("executor.chunk", chunk=chunk_index, pairs=len(pairs))
    # Live telemetry: remote workers got a queue proxy in the payload;
    # thread workers talk to the in-process hub directly.  Either way
    # this is pure observation — nothing here touches the result path.
    live = telemetry is not None or obs_live.hub_active()
    counters_before: Optional[Dict[str, float]] = None
    if live:
        if telemetry is not None:
            # A process worker's registry is private; snapshot it so
            # chunk.done can ship the deltas back for the parent hub to
            # fold in (keeps trace_cache.* series live in /metrics).
            counters_before = obs_metrics.snapshot()["counters"]
        obs_live.emit_worker_event(
            telemetry,
            "chunk.start",
            chunk=chunk_index,
            pairs=len(pairs),
            rss_bytes=obs_live.current_rss_bytes(),
        )
    outcomes: List[Tuple[str, object]] = []
    with opener:
        # A failing run is marshalled as one error per member pair so
        # the collector can name every casualty.
        for spec, configs in _workload_runs(pairs):
            try:
                reports = compute_reports(
                    spec,
                    configs,
                    engine,
                    trace_instructions=trace_instructions,
                    seed=seed,
                )
            except KeyboardInterrupt:
                raise
            except Exception:
                worker_trace = traceback.format_exc()
                outcomes.extend(
                    ("err", _pair_label(spec, config), worker_trace)
                    for config in configs
                )
                event = "pair.error"
            else:
                outcomes.extend(("ok", report) for report in reports)
                event = "pair.done"
            if live:
                for config in configs:
                    obs_live.emit_worker_event(
                        telemetry, event, chunk=chunk_index,
                        pair=_pair_label(spec, config),
                    )
    extras: dict = {
        "queue_wait_s": queue_wait,
        "spans": None,
        "profile": None,
        "pid": os.getpid(),
    }
    if chunk_profiler is not None:
        extras["profile"] = chunk_profiler.stop().to_dict()
    if capturing:
        extras["spans"] = obs_trace.end_remote_capture()
    if live:
        done_fields: dict = {
            "chunk": chunk_index,
            "pairs": len(pairs),
            "rss_bytes": obs_live.current_rss_bytes(),
        }
        if counters_before is not None:
            after = obs_metrics.snapshot()["counters"]
            deltas = {
                name: value - counters_before.get(name, 0.0)
                for name, value in after.items()
                if value - counters_before.get(name, 0.0) > 0.0
            }
            if deltas:
                done_fields["counters"] = deltas
        obs_live.emit_worker_event(telemetry, "chunk.done", **done_fields)
    return chunk_index, outcomes, extras


class ProfilingExecutor:
    """Runs a profiling pair sweep over a worker pool, deterministically.

    Parameters
    ----------
    profiler:
        The cache-owning :class:`~repro.perf.profiler.Profiler`; its
        engine settings are shipped to the workers.
    jobs:
        Worker count.  ``1`` short-circuits to the in-process serial
        path (no pool is created).
    backend:
        ``"thread"`` (default; the engines release no GIL but threads
        keep memory shared and spans visible), ``"process"`` (true
        parallelism for large trace-engine sweeps) or ``"serial"``.
    chunk_size:
        Pairs per dispatched chunk; defaults to an even split of
        roughly four chunks per worker.
    profile:
        Resource-profile mode (``off``/``cpu``/``mem``/``all``) shipped
        to process-backend workers; their per-chunk profiles are merged
        into the active :mod:`repro.obs.profiling` session.  Never
        affects results.
    """

    def __init__(
        self,
        profiler: Profiler,
        jobs: int = 1,
        backend: str = "thread",
        chunk_size: Optional[int] = None,
        profile: str = "off",
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if profile not in obs_profiling.PROFILE_MODES:
            raise ConfigurationError(
                f"unknown profile mode {profile!r}; expected one of "
                f"{obs_profiling.PROFILE_MODES}"
            )
        self.profiler = profiler
        self.jobs = jobs
        self.backend = backend
        self.chunk_size = chunk_size
        self.profile = profile

    def run(
        self,
        pairs: Sequence[Tuple[Union[str, WorkloadSpec], Union[str, MachineConfig]]],
        progress_label: str = "executor.sweep",
    ) -> List[CounterReport]:
        """Profile every pair; results in input order, serial-identical."""
        resolved: List[Pair] = [
            (
                get_workload(w) if isinstance(w, str) else w,
                get_machine(m) if isinstance(m, str) else m,
            )
            for w, m in pairs
        ]
        with span(
            "executor.sweep",
            pairs=len(resolved),
            jobs=self.jobs,
            backend=self.backend,
        ) as sweep:
            return self._run_resolved(
                resolved,
                progress_label,
                sweep if isinstance(sweep, Span) else None,
            )

    def _run_resolved(
        self,
        resolved: List[Pair],
        progress_label: str,
        sweep: Optional[Span] = None,
    ) -> List[CounterReport]:
        ticker = obs_progress(progress_label, total=len(resolved))
        results: List[Optional[CounterReport]] = [None] * len(resolved)

        # Probe the caches up front; only misses reach the pool.  The
        # identical pair can occur twice in one sweep (e.g. the design
        # space baseline) — dispatch it once, fill every position.
        # Positions share the profiler's content-keyed pair identity, so
        # equal-content pairs dedupe even under reused name tags.
        pending_positions: Dict[Tuple[str, str, str, str], List[int]] = {}
        pending: List[Pair] = []
        for index, (spec, config) in enumerate(resolved):
            name_key = pair_key(spec, config)
            if name_key in pending_positions:
                pending_positions[name_key].append(index)
                continue
            cached = self.profiler.lookup(spec, config)
            if cached is not None:
                results[index] = cached
                obs_metrics.incr("executor.tasks.from_cache")
                ticker.advance()
            else:
                self.profiler.record_miss()
                pending_positions[name_key] = [index]
                pending.append((spec, config))
        if pending:
            obs_metrics.set_gauge("executor.pool.jobs", self.jobs)
            if self.jobs == 1 or self.backend == "serial":
                self._run_serial(pending, pending_positions, results, ticker)
            else:
                self._run_pool(
                    pending, pending_positions, results, ticker, sweep
                )
        ticker.close()
        # Every slot is filled unless an exception propagated above.
        return results  # type: ignore[return-value]

    def _adopt(
        self,
        spec: WorkloadSpec,
        config: MachineConfig,
        report: CounterReport,
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
    ) -> None:
        self.profiler.adopt(spec, config, report)
        for index in positions[pair_key(spec, config)]:
            results[index] = report
        obs_metrics.incr("executor.tasks.completed")

    def _run_serial(
        self,
        pending: List[Pair],
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
        ticker,
    ) -> None:
        # The workload-major regrouping of workload_chunks, in one
        # chunk: each workload's machines go to compute_reports in one
        # call.  Results land by input index, so the regrouped compute
        # order can never change a sweep's output.
        (order,) = workload_chunks(pending, jobs=1, chunk_size=len(pending))
        for spec, configs in _workload_runs([pending[i] for i in order]):
            try:
                reports = compute_reports(
                    spec,
                    configs,
                    self.profiler.engine,
                    trace_instructions=self.profiler.trace_instructions,
                    seed=self.profiler.seed,
                )
            except KeyboardInterrupt:
                raise
            except Exception as error:
                labels = ", ".join(
                    _pair_label(spec, config) for config in configs
                )
                raise ExecutionError(
                    f"profiling {labels} failed: {error}"
                ) from error
            for config, report in zip(configs, reports):
                self._adopt(spec, config, report, positions, results)
                ticker.advance()

    def _run_pool(
        self,
        pending: List[Pair],
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
        ticker,
        sweep: Optional[Span] = None,
    ) -> None:
        chunks = workload_chunks(pending, self.jobs, self.chunk_size)
        pool_type = (
            ThreadPoolExecutor if self.backend == "thread" else ProcessPoolExecutor
        )
        context = obs_trace.current_context()
        observed = context is not None or self.profile != "off"
        hub = obs_live.active_hub()
        # Process workers can't reach the parent hub; give them a
        # manager-queue side-channel.  Created only while the hub is
        # active, so hub-off sweeps never pay the manager process.
        channel = (
            obs_live.WorkerChannel(hub)
            if hub is not None and self.backend == "process"
            else None
        )
        telemetry = channel.queue if channel is not None else None

        def payload_stream():
            # Payloads are built lazily, one per submitted chunk, so a
            # campaign-scale pending list (tens of thousands of pairs)
            # never holds every chunk's pair tuples in flight at once —
            # only the bounded submission window below exists at a time.
            for chunk_index, indices in enumerate(chunks):
                yield (
                    chunk_index,
                    self.profiler.engine,
                    self.profiler.trace_instructions,
                    self.profiler.seed,
                    [pending[i] for i in indices],
                    context,
                    os.getpid(),
                    self.profile,
                    telemetry,
                    None,
                )

        window = max(1, self.jobs * _CHUNKS_PER_WORKER)
        futures: Dict[Future, int] = {}
        try:
            with pool_type(max_workers=self.jobs) as pool:
                try:
                    stream = payload_stream()
                    remote_spans: Dict[int, List[dict]] = {}
                    exhausted = False
                    peak = 0
                    while True:
                        while not exhausted and len(futures) < window:
                            payload = next(stream, None)
                            if payload is None:
                                exhausted = True
                                break
                            if observed:
                                # Stamp the submit-time wall clock as
                                # late as possible so the queue-wait
                                # histogram measures pool latency, not
                                # payload construction.
                                payload = payload[:-1] + (
                                    time.perf_counter(),
                                )
                            future = pool.submit(_profile_chunk, payload)
                            futures[future] = payload[0]
                            obs_metrics.adjust_gauge(
                                "executor.pool.inflight", 1
                            )
                            if hub is not None:
                                hub.chunk_submitted(
                                    payload[0], len(payload[4])
                                )
                        peak = max(peak, len(futures))
                        if not futures:
                            break
                        done, _not_done = wait(
                            futures, return_when=FIRST_COMPLETED
                        )
                        # ``done`` is an unordered set; collect it in
                        # chunk-index order so a failing chunk never
                        # shadows the adoption (and disk-cache landing)
                        # of chunks that completed alongside it.
                        for future in sorted(done, key=futures.__getitem__):
                            del futures[future]
                            self._collect_chunk(
                                future, chunks, pending, positions,
                                results, ticker, remote_spans,
                            )
                    # Submission and collection both happen on this
                    # thread, so the peak is deterministic given chunk
                    # completion timing and never exceeds the window.
                    obs_metrics.set_gauge(
                        "executor.pool.peak_inflight", peak
                    )
                    self._merge_worker_spans(sweep, remote_spans)
                except BaseException:
                    # Ctrl-C / worker failure: undispatched chunks were
                    # never submitted, so only the in-flight window
                    # needs cancelling before the context manager joins
                    # the workers; no cache write for anything not
                    # fully collected, so no partial entries can exist.
                    for future in futures:
                        future.cancel()
                    raise
        except ExecutionError:
            raise
        except KeyboardInterrupt:
            raise
        except Exception as error:  # e.g. BrokenProcessPool
            raise ExecutionError(
                f"profiling pool ({self.backend}, jobs={self.jobs}) "
                f"failed: {error}"
            ) from error
        finally:
            obs_metrics.set_gauge("executor.pool.inflight", 0)
            if channel is not None:
                channel.close()

    def _collect_chunk(
        self,
        future: Future,
        chunks: List[List[int]],
        pending: List[Pair],
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
        ticker,
        remote_spans: Dict[int, List[dict]],
    ) -> None:
        # Chunks are adopted as they complete; which slot a report
        # fills depends only on its input index, so completion order
        # affects wall time, never results.
        chunk_index, outcomes, extras = future.result()
        obs_metrics.adjust_gauge("executor.pool.inflight", -1)
        hub = obs_live.active_hub()
        if hub is not None:
            hub.chunk_collected(chunk_index)
        if extras["queue_wait_s"] is not None:
            if self.profile != "off":
                # --profile without --obs: the gated helper would
                # no-op, but the profile report wants the waits.
                obs_metrics.histogram(
                    "profiler.queue_wait_seconds"
                ).observe(extras["queue_wait_s"])
            else:
                obs_metrics.observe(
                    "profiler.queue_wait_seconds", extras["queue_wait_s"]
                )
        if extras["spans"]:
            remote_spans[chunk_index] = extras["spans"]
        if extras["profile"]:
            obs_profiling.absorb_worker_profile(
                extras["profile"], pid=extras["pid"]
            )
        failures: List[Tuple[str, str]] = []
        for offset, outcome in enumerate(outcomes):
            if outcome[0] == "err":
                _tag, label, worker_trace = outcome
                failures.append((label, worker_trace))
                continue
            pair_index = chunks[chunk_index][offset]
            spec, config = pending[pair_index]
            self._adopt(spec, config, outcome[1], positions, results)
            ticker.advance()
        if failures:
            # A fused batch marshals one error per member pair;
            # aggregate so the exception names every failed
            # workload@machine, not just the first.
            labels = ", ".join(label for label, _ in failures)
            raise ExecutionError(
                f"profiling {labels} failed in a "
                f"{self.backend} worker:\n{failures[0][1]}"
            )

    @staticmethod
    def _merge_worker_spans(
        sweep: Optional[Span], remote_spans: Dict[int, List[dict]]
    ) -> None:
        """Graft shipped-back worker spans under the sweep span.

        Merging happens once, after every chunk has completed, in
        chunk-index order — and thread-backend chunk spans that
        self-attached in completion order are re-sorted the same way —
        so the span tree depends only on the input, never on worker
        scheduling.
        """
        adopted = 0
        for chunk_index in sorted(remote_spans):
            adopted += len(
                obs_trace.adopt_remote_spans(sweep, remote_spans[chunk_index])
            )
        if adopted:
            obs_metrics.incr("executor.spans.adopted", adopted)
        if sweep is not None:
            sweep.children.sort(
                key=lambda child: (
                    child.name,
                    child.attributes.get("chunk", -1),
                )
            )
