"""Geometry-keyed trace identity and a bounded shared trace cache.

A synthesized trace (:mod:`repro.workloads.synthesis`) physically
depends on the workload model, the window length, the base seed and the
(line_bytes, page_bytes) geometry — *not* on which machine replays it.
Historically the synthesis seed also mixed in the machine **name**, so
the 43-workload x 7-machine study re-synthesized ~301 traces even
though the seven paper machines span only two geometries.

This module makes trace identity explicit:

* **Trace seed** — :func:`trace_seed` derives the synthesis seed from
  ``(seed, workload, instructions, line_bytes, page_bytes)``, so every
  machine or design variant sharing a geometry replays *the same*
  trace.  That is the common-random-numbers pairing used by
  design-space studies: baseline and variant see identical streams, so
  speedup rankings carry no synthesis noise.

* :class:`TraceCache` — a bounded, byte-accounted, thread-safe LRU of
  synthesized traces keyed by trace identity.  A 7-machine sweep then
  performs exactly one synthesis per distinct (workload, geometry).
  Cached arrays are frozen (non-writeable) so concurrent replays can
  never corrupt a shared trace.

Eviction means resynthesis.  All 80 workloads x 2 geometries at the
default 200k instructions take ~158 MB, inside the default 256 MiB
capacity, so no shipped sweep evicts a trace.

Observability: ``trace_cache.{hit,miss,evict}`` counters and the
``trace_cache.resident_bytes`` gauge feed the shared metrics registry;
:meth:`TraceCache.stats` is always live (every miss is one synthesis,
which is how the benchmarks count synthesis work).
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.perf.diskcache import content_fingerprint
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthesis import SyntheticTrace, synthesize_trace

__all__ = [
    "CACHE_BYTES_ENV",
    "DEFAULT_CAPACITY_BYTES",
    "resolve_seed_scope",
    "trace_seed",
    "trace_key",
    "machine_geometry",
    "TraceCacheInfo",
    "TraceCache",
    "default_trace_cache",
]

#: Environment variable overriding the default cache capacity in bytes.
CACHE_BYTES_ENV = "REPRO_TRACE_CACHE_BYTES"

#: Default trace-cache capacity.  A 200k-instruction trace weighs
#: ~1.5 MB, so the full cross-suite study (80 workloads x 2 geometries)
#: stays resident with room to spare.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024

# Kept only for benchmarks/e2e/op.py (_knobs), which records it.
def resolve_seed_scope(scope: None = None) -> str:
    """The trace engine's one trace identity: geometry-shared traces."""
    return "geometry"


def machine_geometry(machine: MachineConfig) -> Tuple[int, int]:
    """The ``(line_bytes, page_bytes)`` pair that shapes a trace."""
    return (machine.l1d.line_bytes, machine.dtlb.page_bytes)


def trace_seed(
    base: int,
    spec: WorkloadSpec,
    machine: MachineConfig,
    instructions: int,
) -> int:
    """The synthesis seed for one profiling call.

    Hashes exactly what determines the trace — base seed, workload,
    window length and (line_bytes, page_bytes) — so equal-geometry
    machines share a seed and hence a trace.
    """
    line_bytes, page_bytes = machine_geometry(machine)
    text = f"{base}:{spec.name}:{instructions}:{line_bytes}:{page_bytes}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def trace_key(
    spec: WorkloadSpec,
    instructions: int,
    seed: int,
    line_bytes: int,
    page_bytes: int,
) -> Tuple[str, str, int, int, int, int]:
    """Cache key over everything :func:`synthesize_trace` consumes.

    Keyed by spec *content* (not just its name): two specs sharing a
    name but differing in any profile (input-set perturbations,
    sensitivity sweeps) must never share a trace.
    """
    return (
        spec.name,
        content_fingerprint(spec),
        instructions,
        seed,
        line_bytes,
        page_bytes,
    )


class TraceCacheInfo(NamedTuple):
    """Statistics of one :class:`TraceCache` instance.

    Every miss performs exactly one synthesis, so ``misses`` is also
    the synthesis count — the number the sweep benchmarks verify.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    resident_bytes: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without synthesis (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


def _trace_nbytes(trace: SyntheticTrace) -> int:
    return (
        trace.data_addresses.nbytes
        + trace.data_is_store.nbytes
        + trace.ifetch_addresses.nbytes
        + trace.branch_sites.nbytes
        + trace.branch_taken.nbytes
    )


def _freeze(trace: SyntheticTrace) -> SyntheticTrace:
    """Mark every trace array read-only; shared replays cannot mutate."""
    for array in (
        trace.data_addresses,
        trace.data_is_store,
        trace.ifetch_addresses,
        trace.branch_sites,
        trace.branch_taken,
    ):
        array.flags.writeable = False
    return trace


class TraceCache:
    """A bounded, byte-accounted, thread-safe LRU of synthesized traces.

    Parameters
    ----------
    capacity_bytes:
        Upper bound on resident trace bytes.  Insertion evicts
        least-recently-used entries until the new total fits; a single
        trace larger than the whole capacity is returned uncached.
        ``0`` disables retention entirely (every lookup synthesizes).
        ``None`` resolves to ``$REPRO_TRACE_CACHE_BYTES``, else
        :data:`DEFAULT_CAPACITY_BYTES`.

    Eviction is deterministic: it depends only on the sequence of
    completed insertions and hits, never on timing — and because equal
    keys always map to bit-identical traces, eviction (or a concurrent
    double-synthesis racing for the same key) can affect wall time but
    never a profiling result.
    """

    def __init__(self, capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is None:
            value = os.environ.get(CACHE_BYTES_ENV)
            if value:
                try:
                    capacity_bytes = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"${CACHE_BYTES_ENV} must be an integer, got {value!r}"
                    ) from None
            else:
                capacity_bytes = DEFAULT_CAPACITY_BYTES
        if capacity_bytes < 0:
            raise ConfigurationError(
                f"capacity_bytes must be >= 0, got {capacity_bytes}"
            )
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, SyntheticTrace]" = OrderedDict()
        self._resident_bytes = 0
        # Always-live instance counters back stats() in every obs mode;
        # the shared registry counters aggregate across instances.
        self._hits = obs_metrics.Counter("trace_cache.hit")
        self._misses = obs_metrics.Counter("trace_cache.miss")
        self._evictions = obs_metrics.Counter("trace_cache.evict")

    def get(self, key: tuple) -> Optional[SyntheticTrace]:
        """Cache probe; counts a hit and refreshes recency when found."""
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
                self._hits.add()
        if trace is not None:
            obs_metrics.incr("trace_cache.hit")
        return trace

    def put(self, key: tuple, trace: SyntheticTrace) -> SyntheticTrace:
        """Insert a freshly synthesized trace, evicting LRU entries.

        Returns the resident trace for ``key``: when a racing thread
        already installed one, the first insertion wins so every caller
        replays the same (bit-identical) arrays.
        """
        _freeze(trace)
        nbytes = _trace_nbytes(trace)
        if nbytes > self.capacity_bytes:
            return trace  # would evict everything yet still not fit
        evicted = 0
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            while (
                self._entries
                and self._resident_bytes + nbytes > self.capacity_bytes
            ):
                _, dropped = self._entries.popitem(last=False)
                self._resident_bytes -= _trace_nbytes(dropped)
                self._evictions.add()
                evicted += 1
            self._entries[key] = trace
            self._resident_bytes += nbytes
            resident = self._resident_bytes
        if evicted:
            obs_metrics.incr("trace_cache.evict", evicted)
        obs_metrics.set_gauge("trace_cache.resident_bytes", resident)
        return trace

    def get_or_synthesize(
        self,
        spec: WorkloadSpec,
        instructions: int,
        seed: int,
        line_bytes: int,
        page_bytes: int,
    ) -> SyntheticTrace:
        """The trace for this identity, synthesizing at most once.

        Synthesis runs outside the lock so distinct traces synthesize
        concurrently; a same-key race costs one redundant synthesis and
        keeps the first resident copy.
        """
        key = trace_key(spec, instructions, seed, line_bytes, page_bytes)
        cached = self.get(key)
        if cached is not None:
            return cached
        self._misses.add()
        obs_metrics.incr("trace_cache.miss")
        trace = synthesize_trace(
            spec,
            instructions,
            seed=seed,
            line_bytes=line_bytes,
            page_bytes=page_bytes,
        )
        return self.put(key, trace)

    def stats(self) -> TraceCacheInfo:
        """One consistent statistics snapshot (safe mid-sweep)."""
        with self._lock:
            return TraceCacheInfo(
                hits=int(self._hits.value),
                misses=int(self._misses.value),
                evictions=int(self._evictions.value),
                entries=len(self._entries),
                resident_bytes=self._resident_bytes,
            )

    def clear(self) -> None:
        """Drop every trace and zero the statistics."""
        with self._lock:
            self._entries.clear()
            self._resident_bytes = 0
            self._hits.reset()
            self._misses.reset()
            self._evictions.reset()
        # The registry gauge tracks the last put(); without this a
        # cleared (or replaced) cache keeps reporting stale residency
        # for the rest of the process.
        obs_metrics.set_gauge("trace_cache.resident_bytes", 0)


_DEFAULT_CACHE: Optional[TraceCache] = None
_DEFAULT_CACHE_LOCK = threading.Lock()


def default_trace_cache() -> TraceCache:
    """The process-wide shared trace cache (created on first use).

    One cache per process: serial sweeps and thread-backend workers all
    share it, so a 7-machine sweep synthesizes each (workload, geometry)
    trace exactly once; process-backend workers each build their own on
    first use, which the executor's workload-grouped chunking keeps to
    one synthesis per trace per worker.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        with _DEFAULT_CACHE_LOCK:
            if _DEFAULT_CACHE is None:
                _DEFAULT_CACHE = TraceCache()
    return _DEFAULT_CACHE
