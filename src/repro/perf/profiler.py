"""Profiler facade: engine selection, memoization and disk caching.

Profiling is deterministic for a given (workload, machine, engine), so
results are cached at two levels: an in-process dict (the full
80-workload x 7-machine study profiles each pair exactly once per
process) and, optionally, a content-addressed on-disk cache
(:mod:`repro.perf.diskcache`) that survives process restarts, so warm
re-runs of a sweep load results instead of recomputing them.

Observability: every computed profile runs under a ``profile`` span
(workload/machine/engine attributes); lookups feed the
``profiler.cache.{hit,miss}`` (in-memory) and
``profiler.diskcache.{hit,miss,write}`` (on-disk) counters.  In-memory
and disk hits are tracked separately — :meth:`Profiler.cache_info`
reports both, consistently even when read mid-sweep from another
thread.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import stage_probe
from repro.obs.trace import span
from repro.perf.counters import CounterReport
from repro.perf.diskcache import DiskCache, cache_key, content_fingerprint
from repro.uarch.machine import MachineConfig, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = [
    "CacheInfo",
    "Profiler",
    "profile",
    "compute_report",
    "compute_reports",
    "pair_key",
]

_ENGINES = ("analytic", "trace")


def pair_key(
    spec: WorkloadSpec, config: MachineConfig
) -> Tuple[str, str, str, str]:
    """In-memory cache identity of one (workload, machine) pair.

    Keyed by content fingerprints, not just name tags: a renamed copy
    of a machine (a design-space variant tagged ``base+l1d:64KB``)
    shares nothing with its base by name, yet two *different* configs
    accidentally sharing a name must never collide.  Names stay in the
    key purely to keep collisions diagnosable.
    """
    return (
        spec.name,
        content_fingerprint(spec),
        config.name,
        content_fingerprint(config),
    )


class CacheInfo(NamedTuple):
    """Cache statistics of one :class:`Profiler` instance.

    ``hits`` counts in-memory hits, ``disk_hits`` on-disk hits; the two
    are aggregated separately because they have very different costs
    (dict lookup vs. file read + checksum).  ``misses`` counts full
    recomputes; ``size`` is the resident in-memory entry count.
    """

    hits: int
    disk_hits: int
    misses: int
    size: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without recomputing (0.0 when idle)."""
        total = self.hits + self.disk_hits + self.misses
        return (self.hits + self.disk_hits) / total if total else 0.0


def compute_report(
    spec: WorkloadSpec,
    config: MachineConfig,
    engine: str,
    trace_instructions: int = 200_000,
    seed: int = 2017,
) -> CounterReport:
    """Run one engine on one (workload, machine) pair, uncached.

    Module-level (hence picklable by reference) so pool workers and the
    serial path share the exact same computation, spans included.
    ``trace_instructions`` and ``seed`` are ignored by the analytic
    engine.
    """
    with span(
        "profile",
        workload=spec.name,
        machine=config.name,
        engine=engine,
    ), stage_probe(f"profile.{engine}"):
        if engine == "analytic":
            from repro.perf.analytic import profile_analytic

            return profile_analytic(spec, config)
        from repro.perf.trace_engine import profile_trace

        return profile_trace(
            spec, config, instructions=trace_instructions, seed=seed
        )


def compute_reports(
    spec: WorkloadSpec,
    configs: List[MachineConfig],
    engine: str,
    trace_instructions: int = 200_000,
    seed: int = 2017,
) -> List[CounterReport]:
    """Run one engine on one workload across a batch of machines.

    The batched sibling of :func:`compute_report`: for the trace engine
    this hands the whole machine batch to
    :func:`repro.perf.trace_engine.profile_trace_batch`, which
    set-partitions each shared trace once and replays all machines
    together (bit-identical to the per-pair path).  Other engines, and
    single-machine batches, fall back to per-pair
    :func:`compute_report` calls so their span shapes are unchanged.
    """
    if engine != "trace" or len(configs) <= 1:
        return [
            compute_report(
                spec,
                config,
                engine,
                trace_instructions=trace_instructions,
                seed=seed,
            )
            for config in configs
        ]
    from repro.perf.trace_engine import profile_trace_batch

    with span(
        "profile.batch",
        workload=spec.name,
        machines=len(configs),
        engine=engine,
    ), stage_probe(f"profile.{engine}"):
        return profile_trace_batch(
            spec, configs, instructions=trace_instructions, seed=seed
        )


class Profiler:
    """Profiles workloads on machines with a chosen engine.

    Parameters
    ----------
    engine:
        ``"analytic"`` (default, closed form) or ``"trace"`` (exact
        simulation of a synthesized trace; slower).
    trace_instructions:
        Trace length for the trace engine, in instructions.
    seed:
        Base RNG seed for trace synthesis (ignored by the analytic
        engine); results stay deterministic per (workload, machine).
    cache_dir:
        Root of a persistent on-disk result cache; ``None`` (default)
        keeps caching purely in-process.
    """

    def __init__(
        self,
        engine: str = "analytic",
        trace_instructions: int = 200_000,
        seed: int = 2017,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if engine not in _ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; expected one of {_ENGINES}"
            )
        if trace_instructions <= 0:
            raise ConfigurationError(
                f"instructions must be > 0, got {trace_instructions}"
            )
        self.engine = engine
        self.trace_instructions = trace_instructions
        self.seed = seed
        self.disk_cache: Optional[DiskCache] = (
            DiskCache(cache_dir) if cache_dir is not None else None
        )
        self._cache: Dict[Tuple[str, str, str, str], CounterReport] = {}
        # One lock makes lookups, stat updates and cache_info() mutually
        # consistent when worker threads and a reader race mid-sweep.
        self._lock = threading.Lock()
        # Always-live instance counters back cache_info() in every obs
        # mode; the shared registry counters aggregate across instances.
        self._hits = obs_metrics.Counter("profiler.cache.hit")
        self._disk_hits = obs_metrics.Counter("profiler.diskcache.hit")
        self._misses = obs_metrics.Counter("profiler.cache.miss")

    def _disk_key(self, spec: WorkloadSpec, config: MachineConfig) -> str:
        return cache_key(
            spec, config, self.engine, self.trace_instructions, self.seed
        )

    def lookup(
        self,
        spec: WorkloadSpec,
        config: MachineConfig,
    ) -> Optional[CounterReport]:
        """Memory-then-disk cache probe; ``None`` means "must compute".

        Counts hits (memory and disk separately) but *not* misses —
        the caller records the miss when it commits to computing, so a
        probe-then-adopt sequence (the parallel executor) counts each
        pair once.
        """
        key = pair_key(spec, config)
        with self._lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._hits.add()
        if cached is not None:
            obs_metrics.incr("profiler.cache.hit")
            return cached
        if self.disk_cache is None:
            return None
        report = self.disk_cache.load(self._disk_key(spec, config))
        if report is None:
            obs_metrics.incr("profiler.diskcache.miss")
            return None
        with self._lock:
            self._cache[key] = report
            self._disk_hits.add()
        obs_metrics.incr("profiler.diskcache.hit")
        return report

    def record_miss(self) -> None:
        """Count one cache miss (a pair that will be computed)."""
        with self._lock:
            self._misses.add()
        obs_metrics.incr("profiler.cache.miss")
        # Materialize the hit counters so snapshots always report both.
        obs_metrics.incr("profiler.cache.hit", 0)

    def adopt(
        self,
        spec: WorkloadSpec,
        config: MachineConfig,
        report: CounterReport,
    ) -> None:
        """Install a computed report into the memory and disk caches."""
        with self._lock:
            self._cache[pair_key(spec, config)] = report
        if self.disk_cache is not None:
            self.disk_cache.store(self._disk_key(spec, config), report)
            obs_metrics.incr("profiler.diskcache.write")

    def profile(
        self,
        workload: Union[str, WorkloadSpec],
        machine: Union[str, MachineConfig],
    ) -> CounterReport:
        """Profile one workload on one machine (cached)."""
        spec = get_workload(workload) if isinstance(workload, str) else workload
        config = get_machine(machine) if isinstance(machine, str) else machine
        cached = self.lookup(spec, config)
        if cached is not None:
            return cached
        self.record_miss()
        report = compute_report(
            spec,
            config,
            self.engine,
            trace_instructions=self.trace_instructions,
            seed=self.seed,
        )
        self.adopt(spec, config, report)
        if obs_live.hub_active():
            # Serial (non-pool) computations heartbeat too, so a
            # jobs=1 sweep still shows per-pair liveness in /status.
            obs_live.emit_worker_event(
                None, "pair.done", pair=f"{spec.name}@{config.name}",
            )
        return report

    def profile_many(
        self,
        workloads: Iterable[Union[str, WorkloadSpec]],
        machines: Iterable[Union[str, MachineConfig]],
        jobs: int = 1,
        backend: str = "thread",
    ) -> List[CounterReport]:
        """Profile the cross product of workloads and machines.

        With ``jobs > 1`` the sweep fans out over a worker pool (see
        :mod:`repro.perf.executor`); results are returned in the same
        workload-major order as the serial sweep regardless of worker
        count.
        """
        from repro.perf.executor import ProfilingExecutor

        specs = [
            get_workload(w) if isinstance(w, str) else w for w in workloads
        ]
        configs = [
            get_machine(m) if isinstance(m, str) else m for m in machines
        ]
        pairs = [(spec, config) for spec in specs for config in configs]
        executor = ProfilingExecutor(self, jobs=jobs, backend=backend)
        return executor.run(pairs, progress_label="profiler.sweep")

    def cache_info(self) -> CacheInfo:
        """Cache statistics: memory hits, disk hits, misses, entries.

        Taken under the profiler lock, so the four numbers form one
        consistent snapshot even when called mid-sweep.
        """
        with self._lock:
            return CacheInfo(
                hits=int(self._hits.value),
                disk_hits=int(self._disk_hits.value),
                misses=int(self._misses.value),
                size=len(self._cache),
            )

    def clear_cache(self) -> None:
        """Drop all memoized reports and zero the statistics (test hook).

        The on-disk cache is left intact; use ``disk_cache.clear()`` to
        wipe persisted entries.
        """
        with self._lock:
            self._cache.clear()
            self._hits.reset()
            self._disk_hits.reset()
            self._misses.reset()


_DEFAULT_PROFILER: Optional[Profiler] = None


def profile(
    workload: Union[str, WorkloadSpec],
    machine: Union[str, MachineConfig],
) -> CounterReport:
    """Profile with the shared default analytic profiler."""
    global _DEFAULT_PROFILER
    if _DEFAULT_PROFILER is None:
        _DEFAULT_PROFILER = Profiler()
    return _DEFAULT_PROFILER.profile(workload, machine)
