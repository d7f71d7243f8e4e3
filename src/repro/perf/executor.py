"""Parallel profiling executor with deterministic batching.

The paper's measurement sweep — 80 workloads x 7 machines x 2 engines —
is embarrassingly parallel: every (workload, machine) pair is an
independent, deterministic computation.  :class:`ProfilingExecutor`
fans a pair list out over a ``concurrent.futures`` process pool of
``jobs`` workers, one chunk per engine batch
(:func:`~repro.perf.profiler.engine_batches`: one workload's machines,
on the trace engine one trace geometry's), all submitted at once, and
reassembles the results **by input index**.  A batch larger than its
fair share of the sweep splits into near-equal pieces, so a
one-workload sweep still uses every worker.  Reassembly by index makes
the output identical for every worker count, chunking and completion
order, and equal to profiling each pair on its own (see DESIGN.md,
"Parallel execution & caching").

Interplay with the caches: the main process probes the profiler's
memory and disk caches first and only dispatches the remaining pairs;
workers compute raw reports (no cache access), and every cache write
happens in the main process through the disk cache's atomic-rename
path.  A cancelled or crashed sweep therefore never leaves a partial
cache entry behind.

Every sweep takes one path.  At ``jobs=1`` the same chunks (nothing
splits there) run in-process through the same chunk function and
collector as the pool's chunks.  Either way a chunk is one
:func:`~repro.perf.profiler.compute_reports` call, so the trace engine
synthesizes its trace once and replays it as one fused batch.  The
engine's table (:data:`~repro.perf.profiler.EngineTable`: quadrature
rows or synthesized traces) goes with it: at ``jobs=1`` the profiler's own
table, so rows and traces are shared across the whole command; in a
pool worker a fresh table per chunk, which is never shipped back.

Failure handling: a run that raises is reported as a
:class:`~repro.errors.ExecutionError` naming every
``workload@machine`` pair it carried, with the worker traceback
attached; the remaining chunks are cancelled.

Pool workers are set up once per sweep by the pool initializer
(:func:`_init_worker`): it drops the profiling session a forked worker
inherits and keeps what every chunk of the sweep shares — the engine
config, the sweep's trace context and the profiling mode — so a
chunk's payload is its index, its pairs and a submit stamp.  The
standard library's pool machinery (``multiprocessing``,
``concurrent.futures``) is imported only when a pool runs, so a
``jobs=1`` command never loads it.

Observability: the sweep runs under an ``executor.sweep`` span whose
:class:`~repro.obs.trace.TraceContext` every pool worker gets from the
initializer.  Pool workers record spans into a local buffer
(``begin_remote_capture``) that is shipped back with the chunk results
and merged under the sweep span in chunk-index order, so
``--trace-out`` shows per-worker swim-lanes; at ``jobs=1`` the chunk
spans nest under the sweep span directly.  A pool worker's counters
live in its own registry, so each chunk ships its positive counter
deltas back too and the parent adds them to its registry: a ``--jobs
N`` run records the engine counters a ``--jobs 1`` run does, and
since a chunk's table dies with it, every chunk's counters depend only
on its own pairs, never on which worker ran it or what that worker ran
before.  Under an active :mod:`repro.obs.profiling` session each
worker samples its own chunks in the session's mode and ships the
profile back.  The pool
exports ``executor.pool.jobs`` / ``executor.pool.inflight`` /
``executor.pool.peak_inflight`` gauges (the peak is the number of
chunks submitted), ``executor.tasks.{completed,from_cache}`` /
``executor.spans.adopted`` counters and a
``profiler.queue_wait_seconds`` histogram (submit-to-start latency per
chunk), so speedup and saturation are attributable from a trace alone.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ExecutionError
from repro.obs import metrics as obs_metrics
from repro.obs import profiling as obs_profiling
from repro.obs import trace as obs_trace
from repro.obs.progress import progress as obs_progress
from repro.obs.trace import Span, TraceContext, span
from repro.perf.counters import CounterReport
from repro.perf.profiler import (
    EngineConfig,
    EngineTable,
    Profiler,
    compute_reports,
    engine_batches,
    pair_key,
)
from repro.uarch.machine import MachineConfig, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = ["ProfilingExecutor"]

Pair = Tuple[WorkloadSpec, MachineConfig]

# A chunk's outcome per pair: ("ok", report) or ("err", label,
# traceback_text).
Outcome = Tuple[object, ...]

# Pool chunk payload: the chunk index (results are reassembled by it,
# deterministically), the chunk's pairs, and the submit-time clock for
# the queue-wait histogram (None unless the sweep is traced or
# profiled).
_ChunkPayload = Tuple[int, List[Pair], Optional[float]]

# What _init_worker keeps for every chunk of the sweep a pool worker
# serves: the engine config, the sweep's trace context (None while
# tracing is off) and the profiling session's mode ("off" without one).
_WORKER: Optional[tuple] = None


def _pair_label(spec: WorkloadSpec, config: MachineConfig) -> str:
    return f"{spec.name}@{config.name}"


def _init_worker(
    engine_config: EngineConfig,
    context: Optional[TraceContext],
    profile_mode: str,
) -> None:
    """The pool initializer: set one worker up for the whole sweep.

    Drops the profiling session a fork-started worker inherits
    (:func:`repro.obs.profiling.clear_inherited_session`) and keeps the
    sweep's constants for :func:`_profile_chunk`.
    """
    global _WORKER
    obs_profiling.clear_inherited_session()
    _WORKER = (engine_config, context, profile_mode)


def _profile_chunk(
    payload: _ChunkPayload,
) -> Tuple[int, List[Outcome], dict]:
    """The pool's entry point: one chunk with a fresh engine table.

    Runs in a worker :func:`_init_worker` set up.  The table lives
    only for this chunk and is never shipped back, so a worker keeps
    no state from one chunk to the next.  Returns ``(chunk_index,
    outcomes, extras)``; ``extras`` is the chunk's observability
    sidecar: queue-wait seconds, the worker pid, its positive counter
    deltas and, while the sweep is traced or profiled, its serialized
    spans and resource profile.
    """
    chunk_index, pairs, submitted_wall = payload
    engine_config, context, profile_mode = _WORKER
    queue_wait = (
        max(0.0, time.perf_counter() - submitted_wall)
        if submitted_wall is not None
        else None
    )
    if context is not None:
        # The worker's tracer holds whatever it inherited or the last
        # chunk left; begin_remote_capture resets to a clean local
        # buffer parented at the sweep span.
        obs_trace.begin_remote_capture(context)
    chunk_profiler = None
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
    # The worker's registry is private (and forked with the parent's
    # values): snapshot it so the chunk ships back only what it counted.
    counters_before = obs_metrics.snapshot()["counters"]
    outcomes = _run_chunk(chunk_index, pairs, engine_config, {})
    extras: dict = {
        "queue_wait_s": queue_wait,
        # Taken before the chunk profiler's stop() counts its samples:
        # the parent counts those from the merged profile.
        "counters": {
            name: value - counters_before.get(name, 0.0)
            for name, value in obs_metrics.snapshot()["counters"].items()
            if value > counters_before.get(name, 0.0)
        },
        "spans": None,
        "profile": None,
        "pid": os.getpid(),
    }
    if chunk_profiler is not None:
        extras["profile"] = chunk_profiler.stop().to_dict()
    if context is not None:
        extras["spans"] = obs_trace.end_remote_capture()
    return chunk_index, outcomes, extras


def _run_chunk(
    chunk_index: int,
    pairs: List[Pair],
    engine_config: EngineConfig,
    table: EngineTable,
) -> List[Outcome]:
    """Compute one chunk, one engine batch, in a pool worker or in-process.

    The chunk's pairs share one workload (:func:`engine_batches`), so
    they are one :func:`compute_reports` call, which reads and fills
    the engine ``table``: the profiler's own at ``jobs=1``, the chunk's
    own in a pool worker.  Each outcome is ``("ok", report)`` or
    ``("err", label, traceback_text)`` — errors are marshalled as
    strings because not every exception survives pickling back from a
    process worker.
    """
    spec = pairs[0][0]
    configs = [config for _spec, config in pairs]
    with span("executor.chunk", chunk=chunk_index, pairs=len(pairs)):
        try:
            reports = compute_reports(spec, configs, engine_config, table)
        except KeyboardInterrupt:
            raise
        except Exception:
            # One error per member pair, so the collector can name
            # every casualty.
            worker_trace = traceback.format_exc()
            return [
                ("err", _pair_label(spec, config), worker_trace)
                for config in configs
            ]
    return [("ok", report) for report in reports]


class ProfilingExecutor:
    """Runs a profiling pair sweep over a worker pool, deterministically.

    Parameters
    ----------
    profiler:
        The cache-owning :class:`~repro.perf.profiler.Profiler`; its
        engine settings are shipped to the workers.
    jobs:
        Worker count.  ``1`` runs the sweep in-process (no pool is
        created); ``N > 1`` runs it on a pool of ``N`` worker
        processes.  Either way a chunk is one engine batch
        (:func:`~repro.perf.profiler.engine_batches`).

    Under an active :mod:`repro.obs.profiling` session, pool workers
    profile their chunks in the session's mode and the profiles are
    merged into it; this never affects results.
    """

    def __init__(self, profiler: Profiler, jobs: int = 1) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        self.profiler = profiler
        self.jobs = jobs

    def run(
        self,
        pairs: Sequence[Tuple[Union[str, WorkloadSpec], Union[str, MachineConfig]]],
        progress_label: str = "executor.sweep",
    ) -> List[CounterReport]:
        """Profile every pair; results in input order, pool-independent."""
        resolved: List[Pair] = [
            (
                get_workload(w) if isinstance(w, str) else w,
                get_machine(m) if isinstance(m, str) else m,
            )
            for w, m in pairs
        ]
        with span(
            "executor.sweep", pairs=len(resolved), jobs=self.jobs
        ) as sweep:
            ticker = obs_progress(progress_label, total=len(resolved))
            try:
                return self._run_resolved(
                    resolved, ticker, sweep if isinstance(sweep, Span) else None
                )
            finally:
                # A failed sweep closes its ticker too, so its final
                # heartbeat still lands.
                ticker.close()

    def _run_resolved(
        self,
        resolved: List[Pair],
        ticker,
        sweep: Optional[Span] = None,
    ) -> List[CounterReport]:
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
            chunks = engine_batches(
                pending, self.profiler.engine_config, self.jobs
            )
            if self.jobs == 1:
                self._run_serial(
                    pending, chunks, pending_positions, results, ticker
                )
            else:
                self._run_pool(
                    pending, chunks, pending_positions, results, ticker,
                    sweep,
                )
        # Every slot is filled unless an exception propagated above.
        return results  # type: ignore[return-value]

    def _run_serial(
        self,
        pending: List[Pair],
        chunks: List[List[int]],
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
        ticker,
    ) -> None:
        # The pool's chunk body and collector, in-process, with the
        # profiler's engine table, so progress and cache adoption land
        # per batch.  Chunk spans nest under the sweep span on this
        # thread's stack, and an active profiling session samples this
        # process already.
        for chunk_index, indices in enumerate(chunks):
            outcomes = _run_chunk(
                chunk_index, [pending[i] for i in indices],
                self.profiler.engine_config, self.profiler.engine_table,
            )
            self._adopt(
                indices, outcomes, pending, positions, results, ticker
            )

    def _run_pool(
        self,
        pending: List[Pair],
        chunks: List[List[int]],
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
        ticker,
        sweep: Optional[Span] = None,
    ) -> None:
        from concurrent.futures import (
            FIRST_COMPLETED,
            Future,
            ProcessPoolExecutor,
            wait,
        )

        context = obs_trace.current_context()
        # Workers profile their chunks in the mode of the session the
        # caller started, read once so every chunk agrees.
        session = obs_profiling.active_session()
        profile_mode = session.mode if session is not None else "off"
        observed = context is not None or session is not None
        futures: Dict[Future, int] = {}
        try:
            with ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(
                    self.profiler.engine_config, context, profile_mode,
                ),
            ) as pool:
                try:
                    for chunk_index, indices in enumerate(chunks):
                        payload = (
                            chunk_index,
                            [pending[i] for i in indices],
                            # Stamped last so the queue-wait histogram
                            # measures pool latency, not payload
                            # construction.
                            time.perf_counter() if observed else None,
                        )
                        future = pool.submit(_profile_chunk, payload)
                        futures[future] = chunk_index
                        obs_metrics.adjust_gauge("executor.pool.inflight", 1)
                    obs_metrics.set_gauge(
                        "executor.pool.peak_inflight", len(futures)
                    )
                    remote_spans: Dict[int, List[dict]] = {}
                    while futures:
                        done, _not_done = wait(
                            futures, return_when=FIRST_COMPLETED
                        )
                        # ``done`` is an unordered set; collect it in
                        # chunk-index order so a failing chunk never
                        # shadows the adoption (and disk-cache landing)
                        # of chunks that completed alongside it.
                        for future in sorted(done, key=futures.__getitem__):
                            chunk_index = futures.pop(future)
                            obs_metrics.adjust_gauge(
                                "executor.pool.inflight", -1
                            )
                            _chunk_index, outcomes, extras = future.result()
                            _absorb_extras(chunk_index, extras, remote_spans)
                            self._adopt(
                                chunks[chunk_index], outcomes, pending,
                                positions, results, ticker,
                            )
                    self._merge_worker_spans(sweep, remote_spans)
                except BaseException:
                    # Ctrl-C / worker failure: cancel the chunks not
                    # yet started before the context manager joins the
                    # workers; no cache write for anything not fully
                    # collected, so no partial entries can exist.
                    for future in futures:
                        future.cancel()
                    raise
        except ExecutionError:
            raise
        except KeyboardInterrupt:
            raise
        except Exception as error:  # e.g. BrokenProcessPool
            raise ExecutionError(
                f"profiling pool (jobs={self.jobs}) failed: {error}"
            ) from error
        finally:
            obs_metrics.set_gauge("executor.pool.inflight", 0)

    def _adopt(
        self,
        indices: List[int],
        outcomes: List[Outcome],
        pending: List[Pair],
        positions: Dict[Tuple[str, str, str, str], List[int]],
        results: List[Optional[CounterReport]],
        ticker,
    ) -> None:
        """Adopt one chunk's outcomes; ``indices`` index ``pending``.

        Chunks are adopted as they complete; which slot a report fills
        depends only on its input index, so completion order affects
        wall time, never results.
        """
        failures: List[Tuple[str, str]] = []
        for offset, outcome in enumerate(outcomes):
            if outcome[0] == "err":
                _tag, label, worker_trace = outcome
                failures.append((label, worker_trace))
                continue
            spec, config = pending[indices[offset]]
            self.profiler.adopt(spec, config, outcome[1])
            for index in positions[pair_key(spec, config)]:
                results[index] = outcome[1]
            obs_metrics.incr("executor.tasks.completed")
            ticker.advance()
        if failures:
            # A fused batch marshals one error per member pair;
            # aggregate so the exception names every failed
            # workload@machine, not just the first.
            labels = ", ".join(label for label, _ in failures)
            raise ExecutionError(
                f"profiling {labels} failed:\n{failures[0][1]}"
            )

    @staticmethod
    def _merge_worker_spans(
        sweep: Optional[Span], remote_spans: Dict[int, List[dict]]
    ) -> None:
        """Graft shipped-back worker spans under the sweep span.

        Merging happens once, after every chunk has completed, in
        chunk-index order, so the chunk spans' order depends only on
        the input, never on worker scheduling.
        """
        adopted = 0
        for chunk_index in sorted(remote_spans):
            adopted += len(
                obs_trace.adopt_remote_spans(sweep, remote_spans[chunk_index])
            )
        if adopted:
            obs_metrics.incr("executor.spans.adopted", adopted)


def _absorb_extras(
    chunk_index: int, extras: dict, remote_spans: Dict[int, List[dict]]
) -> None:
    """Fold one pool chunk's observability sidecar into the parent."""
    if extras["queue_wait_s"] is not None:
        # Stamped only for a traced or profiled sweep; the always-live
        # handle records it under --profile without --obs too, where
        # the gated helper would no-op.
        obs_metrics.histogram("profiler.queue_wait_seconds").observe(
            extras["queue_wait_s"]
        )
    for name, delta in extras["counters"].items():
        obs_metrics.counter(name).add(delta)
    if extras["spans"]:
        remote_spans[chunk_index] = extras["spans"]
    if extras["profile"]:
        obs_profiling.absorb_worker_profile(
            extras["profile"], pid=extras["pid"]
        )
