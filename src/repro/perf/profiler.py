"""Profiler facade: engine selection, memoization and disk caching.

Profiling is deterministic for a given workload, machine and
:class:`EngineConfig`, so results are cached at two levels: an
in-process dict (the full 80-workload x 7-machine study profiles each
pair exactly once per profiler) and, optionally, a content-addressed on-disk cache
(:mod:`repro.perf.diskcache`) that survives process restarts, so warm
re-runs of a sweep load results instead of recomputing them.  Below
the pairs, each profiler owns its engine's table (:data:`EngineTable`):
the analytic engine's quadrature rows or the trace engine's synthesized
traces, so a row or trace shared by two workloads or two machines of
one command is computed once.  The table lives exactly as long as the
pair memo beside it.

Observability: every computed profile runs under a ``profile`` span
(workload/machine/engine attributes), and every multi-machine batch
under one ``profile.batch`` span (workload/machines/engine); lookups
feed the ``profiler.cache.{hit,miss}`` (in-memory) and
``profiler.diskcache.{hit,miss,write}`` (on-disk) counters.  In-memory
and disk hits are tracked separately — :meth:`Profiler.cache_info`
reports both, consistently even when read mid-sweep from another
thread.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.profiling import stage_probe
from repro.obs.trace import span
from repro.perf.counters import CounterReport
from repro.perf.diskcache import DiskCache, cache_key, content_fingerprint
from repro.uarch.machine import MachineConfig, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = [
    "CacheInfo",
    "ENGINES",
    "EngineConfig",
    "EngineTable",
    "Profiler",
    "profile",
    "compute_report",
    "compute_reports",
    "pair_key",
]

#: The profiling engines (see :mod:`repro.perf`).
ENGINES = ("analytic", "trace")

#: An owner's engine table: the analytic engine's quadrature rows
#: (:data:`~repro.workloads.profiles.RowTable`) or the trace engine's
#: synthesized traces (:data:`~repro.perf.trace_cache.TraceTable`).
#: Each owner runs one engine, so a table never holds both.
EngineTable = Dict[tuple, object]


@dataclass(frozen=True)
class EngineConfig:
    """The engine parameters that determine a profile result.

    Parameters
    ----------
    engine:
        ``"analytic"`` (default, closed form) or ``"trace"`` (exact
        simulation of a synthesized trace; slower).
    trace_instructions:
        Trace length for the trace engine, in instructions.
    seed:
        Base RNG seed for trace synthesis; results stay deterministic
        per (workload, machine).

    Frozen and picklable, so one value travels from the CLI through
    the executor's chunk payload into pool workers.
    """

    engine: str = "analytic"
    trace_instructions: int = 200_000
    seed: int = 2017

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.trace_instructions <= 0:
            raise ConfigurationError(
                f"instructions must be > 0, got {self.trace_instructions}"
            )

    def result_params(self) -> dict:
        """The parameters beyond the engine name that shape a result.

        The analytic engine ignores trace length and seed, so its
        result keys (disk cache, campaign shards) stay stable across
        trace-length experiments.
        """
        if self.engine == "trace":
            return {"instructions": self.trace_instructions, "seed": self.seed}
        return {}


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
    engine_config: EngineConfig,
    table: Optional[EngineTable] = None,
) -> CounterReport:
    """Run one engine on one (workload, machine) pair, uncached.

    Module-level (hence picklable by reference) so pool workers and the
    in-process path share the exact same computation, spans included.
    ``table`` is the caller's :data:`EngineTable`; without one, no row
    or trace outlives the call.
    """
    engine = engine_config.engine
    with span(
        "profile",
        workload=spec.name,
        machine=config.name,
        engine=engine,
    ), stage_probe(f"profile.{engine}"):
        if engine == "analytic":
            from repro.perf.analytic import profile_analytic

            return profile_analytic(spec, config, table)
        from repro.perf.trace_engine import profile_trace

        return profile_trace(
            spec,
            config,
            instructions=engine_config.trace_instructions,
            seed=engine_config.seed,
            table=table,
        )


def compute_reports(
    spec: WorkloadSpec,
    configs: List[MachineConfig],
    engine_config: EngineConfig,
    table: EngineTable,
) -> List[CounterReport]:
    """Run one engine on one workload across a batch of machines.

    The batched sibling of :func:`compute_report`: a batch of more than
    one machine runs as one engine call under a ``profile.batch`` span.
    The analytic engine
    (:func:`repro.perf.analytic.profile_analytic_batch`) evaluates the
    whole batch's miss-ratio quadratures in one array program; the
    trace engine (:func:`repro.perf.trace_engine.profile_trace_batch`)
    set-partitions each shared trace once and replays all machines
    together.  Both are bit-identical to the per-pair path, which
    single-machine batches keep.  ``table`` is the caller's
    :data:`EngineTable`, as in :func:`compute_report`.
    """
    engine = engine_config.engine
    if len(configs) <= 1:
        return [
            compute_report(spec, config, engine_config, table)
            for config in configs
        ]
    with span(
        "profile.batch",
        workload=spec.name,
        machines=len(configs),
        engine=engine,
    ), stage_probe(f"profile.{engine}"):
        if engine == "analytic":
            from repro.perf.analytic import profile_analytic_batch

            return profile_analytic_batch(spec, configs, table)
        from repro.perf.trace_engine import profile_trace_batch

        return profile_trace_batch(
            spec,
            configs,
            instructions=engine_config.trace_instructions,
            seed=engine_config.seed,
            table=table,
        )


class Profiler:
    """Profiles workloads on machines with a chosen engine.

    Results are cached at two levels: the pair memo (and the optional
    disk cache) below :meth:`profile`, and the engine's table
    ``engine_table`` below the pairs: quadrature rows for the analytic
    engine, synthesized traces for the trace engine.  Both live as long
    as the profiler, or until :meth:`clear_cache`; each CLI command
    builds one profiler.

    Parameters
    ----------
    engine / trace_instructions / seed:
        The :class:`EngineConfig` fields, kept as keywords; the
        profiler holds them as one ``engine_config`` value.
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
        self.engine_config = EngineConfig(engine, trace_instructions, seed)
        self.disk_cache: Optional[DiskCache] = (
            DiskCache(cache_dir) if cache_dir is not None else None
        )
        self._cache: Dict[Tuple[str, str, str, str], CounterReport] = {}
        # The quadrature rows or traces of every pair computed here.
        self.engine_table: EngineTable = {}
        # One lock makes lookups, stat updates and cache_info() mutually
        # consistent when another thread reads them mid-sweep.
        self._lock = threading.Lock()
        # Always-live instance counters back cache_info() in every obs
        # mode; the shared registry counters aggregate across instances.
        self._hits = obs_metrics.Counter("profiler.cache.hit")
        self._disk_hits = obs_metrics.Counter("profiler.diskcache.hit")
        self._misses = obs_metrics.Counter("profiler.cache.miss")

    def _disk_key(self, spec: WorkloadSpec, config: MachineConfig) -> str:
        return cache_key(spec, config, self.engine_config)

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
            spec, config, self.engine_config, self.engine_table
        )
        self.adopt(spec, config, report)
        return report

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
        """Drop memoized reports and the engine table, zero the statistics.

        A test hook.  The on-disk cache is left intact; use
        ``disk_cache.clear()`` to wipe persisted entries.
        """
        with self._lock:
            self._cache.clear()
            self.engine_table.clear()
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
