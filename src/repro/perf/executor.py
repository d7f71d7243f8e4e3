"""Parallel profiling executor with deterministic batching.

The paper's measurement sweep — 80 workloads x 7 machines x 2 engines —
is embarrassingly parallel: every (workload, machine) pair is an
independent, deterministic computation.  :class:`ProfilingExecutor`
fans a pair list out over ``jobs`` worker processes, one chunk per
engine batch (:func:`~repro.perf.profiler.engine_batches`: one
workload's machines, on the trace engine one trace geometry's), and
reassembles the results **by input index**.  A batch larger than its
fair share of the sweep splits into near-equal pieces, so a
one-workload sweep still uses every worker.  Reassembly by index makes
the output identical for every worker count, chunking and completion
order, and equal to profiling each pair on its own (see DESIGN.md,
"Parallel execution & caching").

Several sweeps share one set of workers:
:meth:`ProfilingExecutor.run_sweeps` chunks every sweep on its own,
plans all of their chunks up front and hands each sweep's reports to a
``land`` callback, in sweep order, as soon as that sweep's chunks are
in, so the caller lands sweep ``k`` while the workers compute the later
ones (the campaign lands one shard per sweep).  Landed reports are the
caller's: the executor keeps none of them.
:meth:`ProfilingExecutor.run` is the one-sweep case.

Lanes and per-key tables
------------------------

A chunk's *key* is its batch's :func:`~repro.perf.profiler.batch_group`
(workload content and, on the trace engine, trace geometry) plus its
piece index within its sweep, so one key names the same engine work in
every sweep: a campaign's shards repeat every key.  The workers are
``jobs`` *lanes*, each a single-worker process pool.

* A key with chunks in more than one sweep is pinned to one lane.
  Keys go longest first (planned pairs; ties by first appearance) to
  the lane with the fewest pairs so far.  Every pinned chunk is
  submitted to its lane up front, so a lane runs its keys' chunks in
  chunk order.
* A key that occurs once stays in the parent until some lane has fewer
  than two chunks in flight, smallest chunk index first, so a single
  sweep keeps dynamic balance.

A worker keeps one engine table per key, from the key's first planned
chunk to its last, and drops it after the last: a pinned key's traces
are synthesized once and its replays reused by each later chunk, and
every chunk's work depends only on the plan.  So a campaign's trace and
replay counters are the same at every ``jobs`` (and equal ``jobs=1``'s
unless a batch splits).

Interplay with the caches: the main process probes the profiler's
memory and disk caches first and only dispatches the remaining pairs;
workers compute raw reports (no cache access), and every cache write
happens in the main process through the disk cache's atomic-rename
path.  A cancelled or crashed sweep therefore never leaves a partial
cache entry behind.

Every sweep takes one path.  At ``jobs=1`` the same chunks (nothing
splits there) run in-process through the same chunk function and
collector as the lanes' chunks.  Either way a chunk is one
:func:`~repro.perf.profiler.compute_reports` call, so the trace engine
synthesizes its trace once and replays it as one fused batch.  At
``jobs=1`` the engine table (:data:`~repro.perf.profiler.EngineTable`:
quadrature rows or synthesized traces) is the profiler's own, so rows
and traces are shared across the whole command; after each key's last
chunk its traces' replays are dropped
(:func:`~repro.perf.trace_cache.release_replays`) and the traces stay.

Failure handling: a chunk that raises is reported as a
:class:`~repro.errors.ExecutionError` naming every
``workload@machine`` pair it carried, with the worker traceback
attached.  It is raised when the collector reaches it in chunk order —
after every earlier sweep has landed, never before — and the remaining
chunks are cancelled.  An exception from ``land`` or Ctrl-C cancels
them too; either way every lane is joined before the exception
propagates.  A Ctrl-C a worker raises is held until the chunks that
finished beside it are collected and landed.

Workers are set up once per lane by the pool initializer
(:func:`_init_worker`): it drops the profiling session a forked worker
inherits and keeps what every chunk shares — the engine config, the
sweep's trace context, the profiling mode and the per-key tables — so a
chunk's payload is its index, its pairs, its key, whether it is its
key's last and a submit stamp.  The standard library's pool machinery
(``multiprocessing``, ``concurrent.futures``) is imported only when
lanes run, so a ``jobs=1`` command never loads it.

Observability: the sweeps run under one ``executor.sweep`` span whose
:class:`~repro.obs.trace.TraceContext` every worker gets from the
initializer; ``land`` runs inside it.  Workers record spans into a
local buffer (``begin_remote_capture``) that is shipped back with the
chunk results and merged under the sweep span in chunk-index order, so
``--trace-out`` shows per-worker swim-lanes; at ``jobs=1`` the chunk
spans nest under the sweep span directly.  A worker's counters live in
its own registry, so each chunk ships its positive counter deltas back
too and the parent adds them to its registry.  Under an active
:mod:`repro.obs.profiling` session each worker samples its own chunks
in the session's mode and ships the profile back.  The lanes export
``executor.pool.jobs`` / ``executor.pool.inflight`` /
``executor.pool.peak_inflight`` gauges, ``executor.pool.starts`` (one
per call that starts lanes: they start together),
``executor.tasks.{completed,from_cache}`` / ``executor.spans.adopted``
counters and a ``profiler.queue_wait_seconds`` histogram (submit-to-
start latency per chunk; a pinned chunk's includes the wait behind its
lane's earlier chunks), so speedup and saturation are attributable from
a trace alone.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
    batch_group,
    compute_reports,
    engine_batches,
    pair_key,
)
from repro.uarch.machine import MachineConfig, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = ["ProfilingExecutor"]

Pair = Tuple[WorkloadSpec, MachineConfig]

# A pair as callers name it: registry names or resolved objects.
PairArg = Tuple[Union[str, WorkloadSpec], Union[str, MachineConfig]]

# A chunk's outcome per pair: ("ok", report) or ("err", label,
# traceback_text).
Outcome = Tuple[object, ...]

# Lane chunk payload: the chunk index (results are reassembled by it,
# deterministically), the chunk's pairs, its key, whether it is the
# key's last chunk, and the submit-time clock for the queue-wait
# histogram (None unless the sweep is traced or profiled).
_ChunkPayload = Tuple[int, List[Pair], tuple, bool, Optional[float]]

#: Chunks a lane holds in flight before it takes an unpinned one: one
#: running, one queued behind it.
_LANE_DEPTH = 2

# What _init_worker keeps for every chunk a lane's worker serves: the
# engine config, the sweep's trace context (None while tracing is off),
# the profiling session's mode ("off" without one) and the engine
# tables by chunk key.
_WORKER: Optional[tuple] = None


def _pair_label(spec: WorkloadSpec, config: MachineConfig) -> str:
    return f"{spec.name}@{config.name}"


def _init_worker(
    engine_config: EngineConfig,
    context: Optional[TraceContext],
    profile_mode: str,
) -> None:
    """The lane initializer: set one worker up for the whole call.

    Drops the profiling session a fork-started worker inherits
    (:func:`repro.obs.profiling.clear_inherited_session`) and keeps the
    call's constants, and an empty table per key to come, for
    :func:`_profile_chunk`.
    """
    global _WORKER
    obs_profiling.clear_inherited_session()
    _WORKER = (engine_config, context, profile_mode, {})


def _profile_chunk(
    payload: _ChunkPayload,
) -> Tuple[int, List[Outcome], dict]:
    """A lane's entry point: one chunk on its key's engine table.

    Runs in a worker :func:`_init_worker` set up.  The key's table is
    created by its first chunk, read and filled by each later one, and
    dropped after its last, so what a chunk computes depends only on
    the plan; a table is never shipped back.  Returns ``(chunk_index,
    outcomes, extras)``; ``extras`` is the chunk's observability
    sidecar: queue-wait seconds, the worker pid, its positive counter
    deltas and, while the sweep is traced or profiled, its serialized
    spans and resource profile.
    """
    chunk_index, pairs, key, last, submitted_wall = payload
    engine_config, context, profile_mode, tables = _WORKER
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
    try:
        outcomes = _run_chunk(
            chunk_index, pairs, engine_config, tables.setdefault(key, {})
        )
    finally:
        if last:
            del tables[key]
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
    the engine ``table``: the profiler's own at ``jobs=1``, the chunk
    key's own in a lane's worker.  Each outcome is ``("ok", report)`` or
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


class _Sweeps:
    """The bookkeeping of one :meth:`ProfilingExecutor.run_sweeps` call.

    All sweeps are probed and chunked up front.  Pairs are deduplicated
    across every sweep, so a pair is computed once and fills each of
    its positions; its chunk belongs to the sweep it first appears in.
    Chunks are numbered in sweep order, so sweep ``k`` is complete once
    every chunk before ``ends[k]`` has been collected.  Each chunk has
    a key (its batch group and piece index within its sweep), and
    ``last`` holds the chunks that are their key's last.
    """

    def __init__(
        self,
        profiler: Profiler,
        sweeps: List[List[Pair]],
        jobs: int,
        land: Callable[[int, List[CounterReport]], None],
        ticker,
    ) -> None:
        self.profiler = profiler
        self.land = land
        self.ticker = ticker
        self.bounds = [0]
        self.results: List[Optional[CounterReport]] = []
        # Probe the caches up front; only misses reach the chunks.  The
        # identical pair can occur twice (e.g. the design space
        # baseline): dispatch it once, fill every position.  Positions
        # share the profiler's content-keyed pair identity, so
        # equal-content pairs dedupe even under reused name tags.
        self.positions: Dict[Tuple[str, str, str, str], List[int]] = {}
        self.pending: List[Pair] = []
        self.chunks: List[List[int]] = []
        self.keys: List[tuple] = []
        self.ends: List[int] = []
        engine_config = profiler.engine_config
        for sweep in sweeps:
            first_pending = len(self.pending)
            for spec, config in sweep:
                index = len(self.results)
                name_key = pair_key(spec, config)
                self.results.append(None)
                if name_key in self.positions:
                    self.positions[name_key].append(index)
                    continue
                cached = profiler.lookup(spec, config)
                if cached is not None:
                    self.results[index] = cached
                    obs_metrics.incr("executor.tasks.from_cache")
                    ticker.advance()
                else:
                    profiler.record_miss()
                    self.positions[name_key] = [index]
                    self.pending.append((spec, config))
            self.bounds.append(len(self.results))
            pieces: Dict[tuple, int] = {}
            for batch in engine_batches(
                self.pending[first_pending:], engine_config, jobs
            ):
                chunk = [first_pending + i for i in batch]
                group = batch_group(*self.pending[chunk[0]], engine_config)
                piece = pieces.get(group, 0)
                pieces[group] = piece + 1
                self.chunks.append(chunk)
                self.keys.append(group + (piece,))
            self.ends.append(len(self.chunks))
        # Each key's chunks in chunk order; the last one frees its table.
        self.by_key: Dict[tuple, List[int]] = {}
        for chunk_index, key in enumerate(self.keys):
            self.by_key.setdefault(key, []).append(chunk_index)
        self.last = {chunks[-1] for chunks in self.by_key.values()}
        # chunk index -> None once collected, or its failure's
        # (message, cause)
        self.collected: Dict[int, Optional[Tuple[str, Optional[BaseException]]]] = {}
        self.cursor = 0
        self.landed = 0

    def chunk_pairs(self, chunk_index: int) -> List[Pair]:
        return [self.pending[i] for i in self.chunks[chunk_index]]

    def lanes(self, jobs: int) -> List[Optional[int]]:
        """Each chunk's lane; ``None`` for a key that occurs once.

        A key with more than one chunk is pinned whole to one lane.
        Keys go longest first by planned pairs (a stable sort keeps
        ties in first-appearance order), each to the lane with the
        fewest pairs so far, the lowest such lane on a tie.
        """
        lanes: List[Optional[int]] = [None] * len(self.chunks)
        load = [0] * jobs
        sizes = {
            key: sum(len(self.chunks[c]) for c in chunks)
            for key, chunks in self.by_key.items()
            if len(chunks) > 1
        }
        for key in sorted(sizes, key=lambda key: -sizes[key]):
            lane = load.index(min(load))
            load[lane] += sizes[key]
            for chunk_index in self.by_key[key]:
                lanes[chunk_index] = lane
        return lanes

    def adopt(self, chunk_index: int, outcomes: List[Outcome]) -> None:
        """Adopt one chunk's outcomes, in whatever order chunks finish.

        Which slot a report fills depends only on its input index, so
        completion order affects wall time, never results.
        """
        failures: List[Tuple[str, str]] = []
        for offset, outcome in enumerate(outcomes):
            if outcome[0] == "err":
                _tag, label, worker_trace = outcome
                failures.append((label, worker_trace))
                continue
            spec, config = self.pending[self.chunks[chunk_index][offset]]
            self.profiler.adopt(spec, config, outcome[1])
            for index in self.positions[pair_key(spec, config)]:
                self.results[index] = outcome[1]
            obs_metrics.incr("executor.tasks.completed")
            self.ticker.advance()
        self.collected[chunk_index] = None
        if failures:
            # A fused batch marshals one error per member pair;
            # aggregate so the exception names every failed
            # workload@machine, not just the first.
            labels = ", ".join(label for label, _ in failures)
            self.fail(
                chunk_index, f"profiling {labels} failed:\n{failures[0][1]}"
            )

    def fail(
        self, chunk_index: int, message: str,
        cause: Optional[BaseException] = None,
    ) -> None:
        """Record a failed chunk; :meth:`advance` raises it in turn."""
        self.collected[chunk_index] = (message, cause)

    def advance(self) -> None:
        """Land every sweep whose chunks are in, in sweep order.

        The cursor passes collected chunks in index order, so a failed
        chunk raises only after every earlier chunk was collected and
        every earlier sweep landed, whatever order the pool finished
        them in.
        """
        while True:
            while self.landed < len(self.ends) and (
                self.ends[self.landed] <= self.cursor
            ):
                start, stop = self.bounds[self.landed:self.landed + 2]
                # Every slot of a complete sweep is filled.
                self.land(self.landed, self.results[start:stop])  # type: ignore[arg-type]
                # The reports are the caller's now; keep none of them.
                self.results[start:stop] = [None] * (stop - start)
                self.landed += 1
            if self.cursor not in self.collected:
                return
            failure = self.collected[self.cursor]
            if failure is not None:
                raise ExecutionError(failure[0]) from failure[1]
            self.cursor += 1


class ProfilingExecutor:
    """Runs profiling pair sweeps over worker processes, deterministically.

    Parameters
    ----------
    profiler:
        The cache-owning :class:`~repro.perf.profiler.Profiler`; its
        engine settings are shipped to the workers.
    jobs:
        Worker count.  ``1`` runs the sweeps in-process (no worker is
        started); ``N > 1`` runs them on ``N`` lanes, one worker
        process each.  Either way a chunk is one engine batch
        (:func:`~repro.perf.profiler.engine_batches`).

    Under an active :mod:`repro.obs.profiling` session, workers
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
        pairs: Sequence[PairArg],
        progress_label: str = "executor.sweep",
    ) -> List[CounterReport]:
        """Profile every pair; results in input order, pool-independent.

        The one-sweep case of :meth:`run_sweeps`.
        """
        landed: List[List[CounterReport]] = []
        self.run_sweeps(
            [pairs], lambda _index, reports: landed.append(reports),
            progress_label,
        )
        return landed[0]

    def run_sweeps(
        self,
        sweeps: Sequence[Sequence[PairArg]],
        land: Callable[[int, List[CounterReport]], None],
        progress_label: str = "executor.sweep",
    ) -> None:
        """Profile several sweeps through one set of lanes, landing each in turn.

        Every sweep's chunks (the :func:`engine_batches` of its own
        pairs) are planned up front and, at ``jobs > 1``, run on the
        lanes of the module docstring.  ``land(k, reports)`` runs in
        this process, in sweep order, as soon as every chunk sweep
        ``k`` needs is in; ``reports`` are in sweep ``k``'s input order
        and the executor keeps no reference to them.  While sweep ``k``
        lands, the workers compute the later sweeps.

        A failed chunk raises :class:`~repro.errors.ExecutionError`
        when its turn comes: after every earlier sweep has landed,
        never before.  An exception from ``land``, a failed chunk or
        Ctrl-C cancels every queued chunk and joins every lane before
        it propagates.
        """
        resolved: List[List[Pair]] = [
            [
                (
                    get_workload(w) if isinstance(w, str) else w,
                    get_machine(m) if isinstance(m, str) else m,
                )
                for w, m in sweep
            ]
            for sweep in sweeps
        ]
        total = sum(len(sweep) for sweep in resolved)
        with span(
            "executor.sweep", pairs=total, sweeps=len(resolved), jobs=self.jobs
        ) as sweep_span:
            ticker = obs_progress(progress_label, total=total)
            try:
                stream = _Sweeps(
                    self.profiler, resolved, self.jobs, land, ticker
                )
                if stream.chunks:
                    obs_metrics.set_gauge("executor.pool.jobs", self.jobs)
                if self.jobs > 1 and stream.chunks:
                    self._run_pool(
                        stream,
                        sweep_span if isinstance(sweep_span, Span) else None,
                    )
                else:
                    self._run_serial(stream)
            finally:
                # A failed sweep closes its ticker too, so its final
                # heartbeat still lands.
                ticker.close()

    def _run_serial(self, stream: _Sweeps) -> None:
        # The lanes' chunk body and collector, in-process, with the
        # profiler's engine table, so progress and cache adoption land
        # per batch.  Chunk spans nest under the sweep span on this
        # thread's stack, and an active profiling session samples this
        # process already.
        engine_config = self.profiler.engine_config
        table = self.profiler.engine_table
        stream.advance()
        for chunk_index in range(len(stream.chunks)):
            pairs = stream.chunk_pairs(chunk_index)
            outcomes = _run_chunk(chunk_index, pairs, engine_config, table)
            if chunk_index in stream.last and engine_config.engine == "trace":
                # No later chunk replays these traces: they stay in the
                # profiler's table, their replays go.
                from repro.perf.trace_cache import release_replays

                release_replays(
                    table, pairs[0][0], [config for _spec, config in pairs],
                    engine_config.trace_instructions, engine_config.seed,
                )
            stream.adopt(chunk_index, outcomes)
            stream.advance()

    def _run_pool(self, stream: _Sweeps, sweep: Optional[Span]) -> None:
        from concurrent.futures import (
            FIRST_COMPLETED,
            ProcessPoolExecutor,
            wait,
        )

        context = obs_trace.current_context()
        # Workers profile their chunks in the mode of the session the
        # caller started, read once so every chunk agrees.
        session = obs_profiling.active_session()
        profile_mode = session.mode if session is not None else "off"
        observed = context is not None or session is not None
        remote_spans: Dict[int, List[dict]] = {}
        lanes: list = []
        try:
            for _ in range(self.jobs):
                lanes.append(ProcessPoolExecutor(
                    max_workers=1,
                    initializer=_init_worker,
                    initargs=(
                        self.profiler.engine_config, context, profile_mode,
                    ),
                ))
        except (OSError, RuntimeError) as error:  # e.g. no semaphores
            for lane in lanes:
                lane.shutdown(wait=True)
            raise ExecutionError(self._pool_failure(error)) from error
        obs_metrics.incr("executor.pool.starts")
        plan = stream.lanes(self.jobs)
        # future -> (chunk index, lane); the chunks no lane is pinned
        # to, smallest index first; each lane's chunks in flight.
        futures: dict = {}
        unpinned = deque(c for c, lane in enumerate(plan) if lane is None)
        inflight = [0] * self.jobs
        peak = 0

        def submit(chunk_index: int, lane: int) -> None:
            nonlocal peak
            payload = (
                chunk_index,
                stream.chunk_pairs(chunk_index),
                stream.keys[chunk_index],
                chunk_index in stream.last,
                # Stamped last so the queue-wait histogram measures
                # lane latency, not payload construction.
                time.perf_counter() if observed else None,
            )
            try:
                future = lanes[lane].submit(_profile_chunk, payload)
            except (OSError, RuntimeError) as error:
                # A failed fork, or a lane whose worker died
                # (BrokenProcessPool): the chunk fails in its turn.
                stream.fail(chunk_index, self._pool_failure(error), error)
                return
            futures[future] = (chunk_index, lane)
            inflight[lane] += 1
            obs_metrics.adjust_gauge("executor.pool.inflight", 1)
            peak = max(peak, len(futures))

        def dispatch() -> None:
            # Unpinned chunks go to the least busy lane below
            # _LANE_DEPTH, the lowest such lane on a tie.
            while unpinned:
                lane = inflight.index(min(inflight))
                if inflight[lane] >= _LANE_DEPTH:
                    return
                submit(unpinned.popleft(), lane)

        try:
            for chunk_index, lane in enumerate(plan):
                if lane is not None:
                    submit(chunk_index, lane)
            dispatch()
            obs_metrics.set_gauge("executor.pool.peak_inflight", peak)
            stream.advance()
            while futures:
                done, _not_done = wait(futures, return_when=FIRST_COMPLETED)
                interrupt: Optional[BaseException] = None
                for future in done:
                    chunk_index, lane = futures.pop(future)
                    inflight[lane] -= 1
                    obs_metrics.adjust_gauge("executor.pool.inflight", -1)
                    try:
                        _index, outcomes, extras = future.result()
                    except Exception as error:  # BrokenProcessPool
                        stream.fail(
                            chunk_index, self._pool_failure(error), error,
                        )
                        continue
                    except BaseException as error:  # Ctrl-C in a worker
                        # Collect the rest of the batch first: a chunk
                        # that finished beside it is kept, not redone.
                        interrupt = error
                        continue
                    _absorb_extras(chunk_index, extras, remote_spans)
                    stream.adopt(chunk_index, outcomes)
                if interrupt is not None:
                    # Land what is complete; the Ctrl-C propagates
                    # whatever landing raises.
                    try:
                        stream.advance()
                    finally:
                        raise interrupt
                dispatch()
                obs_metrics.set_gauge("executor.pool.peak_inflight", peak)
                stream.advance()
            self._merge_worker_spans(sweep, remote_spans)
        except BaseException:
            # A failed chunk, a landing error or Ctrl-C: cancel the
            # chunks not yet started and join every lane before it
            # propagates; no cache write for anything not fully
            # collected, so no partial entries exist.
            for lane in lanes:
                lane.shutdown(wait=True, cancel_futures=True)
            raise
        finally:
            for lane in lanes:
                lane.shutdown(wait=True)
            obs_metrics.set_gauge("executor.pool.inflight", 0)

    def _pool_failure(self, error: BaseException) -> str:
        return f"profiling pool (jobs={self.jobs}) failed: {error}"

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
