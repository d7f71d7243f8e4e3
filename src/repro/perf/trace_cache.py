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

* **Spill tier** — optionally (``spill_dir=`` or
  ``$REPRO_TRACE_SPILL_DIR``), traces evicted from the resident LRU are
  written to a spill directory (one ``np.save`` file per array) and
  re-hit via ``np.load(mmap_mode="r")``, so campaign-scale trace sets
  survive eviction without resynthesis.  The spill tier is
  byte-accounted separately from the resident LRU, content-addressed
  (equal keys map to the same directory, so concurrent spills are
  idempotent), and treats *any* on-disk damage as a miss: a corrupt
  spill entry is unlinked and the trace resynthesized, never a crash.
  Every entry carries a ``key.json`` sidecar, so a fresh process
  pointed at an existing spill directory (a resumed campaign) re-adopts
  the tier in **one** construction-time scan; the byte total is
  computed then and tracked incrementally ever after — inserts and
  evictions never rescan the directory (``trace_cache.spill_scan``
  counts the scans and stays at one).

Observability: ``trace_cache.{hit,miss,evict,spill,spill_hit,
spill_scan}``
counters and ``trace_cache.{resident_bytes,spilled_bytes}`` gauges feed
the shared metrics registry; :meth:`TraceCache.stats` is always live
(every miss is one synthesis, which is how the benchmarks count
synthesis work).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.perf.diskcache import content_fingerprint
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthesis import SyntheticTrace, synthesize_trace

__all__ = [
    "CACHE_BYTES_ENV",
    "SPILL_DIR_ENV",
    "SPILL_BYTES_ENV",
    "DEFAULT_CAPACITY_BYTES",
    "DEFAULT_SPILL_CAPACITY_BYTES",
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

#: Environment variable naming the spill directory.  Unset (and no
#: ``spill_dir=`` argument) disables the spill tier entirely.
SPILL_DIR_ENV = "REPRO_TRACE_SPILL_DIR"

#: Environment variable overriding the spill-tier byte budget.
SPILL_BYTES_ENV = "REPRO_TRACE_SPILL_BYTES"

#: Default spill-tier capacity: disk is ~cheap relative to the resident
#: LRU, so the spill budget defaults to 4x campaign scale.
DEFAULT_SPILL_CAPACITY_BYTES = 1024 * 1024 * 1024

#: The trace arrays persisted per spill entry (one ``.npy`` each); the
#: scalar ``instructions`` count is recovered from the cache key.
_SPILL_ARRAYS = (
    "data_addresses",
    "data_is_store",
    "ifetch_addresses",
    "branch_sites",
    "branch_taken",
)

#: Sidecar persisted with every spill entry: the JSON-able trace key
#: plus the accounted byte size, so a fresh process (a resumed
#: campaign) can re-adopt the tier without re-deriving either.
_SPILL_KEY_FILE = "key.json"


def _spill_dirname(key: tuple) -> str:
    """Stable content-addressed directory name for one trace key."""
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32]


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
    # Spill-tier fields are appended with defaults so positional
    # construction from pre-spill callers keeps working.
    spill_hits: int = 0
    spills: int = 0
    spilled_entries: int = 0
    spilled_bytes: int = 0
    # Directory scans performed for spill-tier byte accounting: exactly
    # one (at construction, adopting pre-existing entries) per cache
    # lifetime — inserts and evictions adjust the total incrementally
    # and never rescan (the satellite regression guard asserts this).
    spill_scans: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without synthesis (0.0 when idle).

        A spill hit avoids a synthesis just like a resident hit does, so
        both tiers count as served lookups.
        """
        served = self.hits + self.spill_hits
        total = served + self.misses
        return served / total if total else 0.0


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
    spill_dir:
        Directory for the memory-mapped spill tier.  When set (or via
        ``$REPRO_TRACE_SPILL_DIR``), traces evicted from the resident
        LRU are written out as ``.npy`` files and re-hits load them
        with ``np.load(mmap_mode="r")`` instead of resynthesizing.
        ``None`` with the variable unset disables spilling (the
        historical behaviour: eviction means resynthesis).
    spill_capacity_bytes:
        Byte budget for the spill tier, accounted separately from the
        resident budget.  ``None`` resolves to
        ``$REPRO_TRACE_SPILL_BYTES``, else
        :data:`DEFAULT_SPILL_CAPACITY_BYTES`.  Over-budget spills evict
        the oldest spilled entries (files and accounting both).

    Eviction is deterministic: it depends only on the sequence of
    completed insertions and hits, never on timing — and because equal
    keys always map to bit-identical traces, eviction (or a concurrent
    double-synthesis racing for the same key) can affect wall time but
    never a profiling result.  The spill tier preserves that property:
    a spill entry holds exactly the arrays that were evicted, and any
    damage to it degrades to resynthesis of the same bit-identical
    trace.
    """

    def __init__(
        self,
        capacity_bytes: Optional[int] = None,
        spill_dir: Optional[Union[str, Path]] = None,
        spill_capacity_bytes: Optional[int] = None,
    ) -> None:
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
        if spill_dir is None:
            env_dir = os.environ.get(SPILL_DIR_ENV)
            spill_dir = env_dir if env_dir else None
        self.spill_dir: Optional[Path] = (
            Path(spill_dir) if spill_dir is not None else None
        )
        if spill_capacity_bytes is None:
            value = os.environ.get(SPILL_BYTES_ENV)
            if value:
                try:
                    spill_capacity_bytes = int(value)
                except ValueError:
                    raise ConfigurationError(
                        f"${SPILL_BYTES_ENV} must be an integer, got {value!r}"
                    ) from None
            else:
                spill_capacity_bytes = DEFAULT_SPILL_CAPACITY_BYTES
        if spill_capacity_bytes < 0:
            raise ConfigurationError(
                f"spill_capacity_bytes must be >= 0, got {spill_capacity_bytes}"
            )
        self.spill_capacity_bytes = spill_capacity_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, SyntheticTrace]" = OrderedDict()
        self._resident_bytes = 0
        # Spill index: key -> (dirname, nbytes), oldest-spilled first.
        self._spilled: "OrderedDict[tuple, Tuple[str, int]]" = OrderedDict()
        self._spilled_bytes = 0
        # Always-live instance counters back stats() in every obs mode;
        # the shared registry counters aggregate across instances.
        self._hits = obs_metrics.Counter("trace_cache.hit")
        self._misses = obs_metrics.Counter("trace_cache.miss")
        self._evictions = obs_metrics.Counter("trace_cache.evict")
        self._spills = obs_metrics.Counter("trace_cache.spill")
        self._spill_hits = obs_metrics.Counter("trace_cache.spill_hit")
        self._spill_scans = obs_metrics.Counter("trace_cache.spill_scan")
        if self.spill_dir is not None:
            self._adopt_spill_dir()

    def _adopt_spill_dir(self) -> None:
        """Adopt pre-existing spill entries in one construction-time scan.

        The byte total of the tier is computed here **once** — every
        later insert/evict adjusts it incrementally (``spill_scans``
        counts the scans so a regression back to rescan-per-insert is
        counter-visible).  Entries are adopted oldest-first (mtime, then
        name) so the pre-existing population evicts in write order, and
        anything unreadable — a missing or corrupt ``key.json``, a
        sidecar whose key does not hash to its own directory name, a
        missing trace array — is unlinked rather than accounted.
        Adoption is what lets a resumed campaign re-hit the traces a
        killed run already paid to synthesize.
        """
        self._spill_scans.add()
        obs_metrics.incr("trace_cache.spill_scan")
        candidates = []
        try:
            with os.scandir(self.spill_dir) as scan:
                for entry in scan:
                    if entry.name.startswith(".") or not entry.is_dir():
                        continue
                    candidates.append(
                        (entry.stat().st_mtime_ns, entry.name)
                    )
        except OSError:
            return
        adopted: List[Tuple[tuple, int]] = []
        stale: List[str] = []
        for _mtime, name in sorted(candidates):
            path = self.spill_dir / name
            try:
                sidecar = json.loads((path / _SPILL_KEY_FILE).read_text())
                key = tuple(sidecar["key"])
                nbytes = int(sidecar["nbytes"])
                if _spill_dirname(key) != name or nbytes < 0:
                    raise ValueError("spill sidecar disagrees with its dir")
                for field in _SPILL_ARRAYS:
                    if not (path / f"{field}.npy").is_file():
                        raise ValueError(f"spill entry lacks {field}.npy")
            except Exception:
                stale.append(name)
                continue
            adopted.append((key, nbytes))
        evicted: List[str] = []
        with self._lock:
            for key, nbytes in adopted:
                if key in self._spilled:
                    continue
                if nbytes > self.spill_capacity_bytes:
                    evicted.append(_spill_dirname(key))
                    continue
                while (
                    self._spilled
                    and self._spilled_bytes + nbytes
                    > self.spill_capacity_bytes
                ):
                    _, (old_name, old_nbytes) = self._spilled.popitem(
                        last=False
                    )
                    self._spilled_bytes -= old_nbytes
                    evicted.append(old_name)
                self._spilled[key] = (_spill_dirname(key), nbytes)
                self._spilled_bytes += nbytes
            spilled = self._spilled_bytes
        for name in stale + evicted:
            shutil.rmtree(self.spill_dir / name, ignore_errors=True)
        obs_metrics.set_gauge("trace_cache.spilled_bytes", spilled)

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
        dropped_entries: List[Tuple[tuple, SyntheticTrace]] = []
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            while (
                self._entries
                and self._resident_bytes + nbytes > self.capacity_bytes
            ):
                dropped_key, dropped = self._entries.popitem(last=False)
                self._resident_bytes -= _trace_nbytes(dropped)
                self._evictions.add()
                dropped_entries.append((dropped_key, dropped))
            self._entries[key] = trace
            self._resident_bytes += nbytes
            resident = self._resident_bytes
        if dropped_entries:
            obs_metrics.incr("trace_cache.evict", len(dropped_entries))
            # Spilling happens outside the lock: np.save is slow
            # relative to the LRU bookkeeping, and a concurrent
            # double-spill of the same key is idempotent (the directory
            # name is content-addressed).
            for dropped_key, dropped_trace in dropped_entries:
                self._spill(dropped_key, dropped_trace)
        obs_metrics.set_gauge("trace_cache.resident_bytes", resident)
        return trace

    def _spill(self, key: tuple, trace: SyntheticTrace) -> None:
        """Persist an evicted trace to the spill tier (best effort).

        Written to a temporary directory first and renamed into place,
        so a spill-tier reader never observes a partial entry.  Any
        filesystem failure leaves the tier unchanged — the trace is
        simply resynthesized on next use.
        """
        if self.spill_dir is None:
            return
        nbytes = _trace_nbytes(trace)
        if nbytes > self.spill_capacity_bytes:
            return
        name = _spill_dirname(key)
        with self._lock:
            if key in self._spilled:
                self._spilled.move_to_end(key)
                return
        final = self.spill_dir / name
        try:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
            tmp = Path(
                tempfile.mkdtemp(dir=self.spill_dir, prefix=f".{name}-")
            )
            for field in _SPILL_ARRAYS:
                np.save(tmp / f"{field}.npy", getattr(trace, field))
            # The sidecar rides inside the same atomic rename, so an
            # installed entry is always re-adoptable by a later process.
            (tmp / _SPILL_KEY_FILE).write_text(
                json.dumps({"key": list(key), "nbytes": nbytes})
            )
            try:
                os.replace(tmp, final)
            except OSError:
                # A racing spill of the same key already installed the
                # (bit-identical) entry; keep it and drop ours.
                shutil.rmtree(tmp, ignore_errors=True)
                if not final.is_dir():
                    return
        except OSError:
            return
        spill_evicted: List[str] = []
        with self._lock:
            if key in self._spilled:
                self._spilled.move_to_end(key)
                spilled = self._spilled_bytes
            else:
                while (
                    self._spilled
                    and self._spilled_bytes + nbytes
                    > self.spill_capacity_bytes
                ):
                    _, (old_name, old_nbytes) = self._spilled.popitem(
                        last=False
                    )
                    self._spilled_bytes -= old_nbytes
                    spill_evicted.append(old_name)
                self._spilled[key] = (name, nbytes)
                self._spilled_bytes += nbytes
                self._spills.add()
                spilled = self._spilled_bytes
        for old_name in spill_evicted:
            shutil.rmtree(self.spill_dir / old_name, ignore_errors=True)
        obs_metrics.incr("trace_cache.spill")
        obs_metrics.set_gauge("trace_cache.spilled_bytes", spilled)

    def _drop_spilled(self, key: tuple) -> None:
        """Unlink one spill entry and unaccount it (corruption path)."""
        with self._lock:
            entry = self._spilled.pop(key, None)
            if entry is not None:
                self._spilled_bytes -= entry[1]
            spilled = self._spilled_bytes
        if entry is not None:
            shutil.rmtree(self.spill_dir / entry[0], ignore_errors=True)
            obs_metrics.set_gauge("trace_cache.spilled_bytes", spilled)

    def _load_spilled(self, key: tuple) -> Optional[SyntheticTrace]:
        """Memory-map one spilled trace, or ``None`` on absence/damage.

        Arrays come back with ``mmap_mode="r"`` so a re-hit costs page
        faults, not a full read — and stays read-only like every other
        cached trace.  *Any* exception while opening or validating the
        entry (missing file, truncated header, mismatched array
        lengths) drops the entry and degrades to resynthesis.
        """
        if self.spill_dir is None:
            return None
        with self._lock:
            entry = self._spilled.get(key)
            if entry is not None:
                self._spilled.move_to_end(key)
        if entry is None:
            return None
        path = self.spill_dir / entry[0]
        try:
            arrays = {
                field: np.load(path / f"{field}.npy", mmap_mode="r")
                for field in _SPILL_ARRAYS
            }
            if (
                arrays["data_addresses"].shape
                != arrays["data_is_store"].shape
                or arrays["branch_sites"].shape
                != arrays["branch_taken"].shape
            ):
                raise ValueError("spilled trace arrays disagree on length")
            trace = SyntheticTrace(instructions=key[2], **arrays)
        except Exception:
            self._drop_spilled(key)
            return None
        self._spill_hits.add()
        obs_metrics.incr("trace_cache.spill_hit")
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
        spilled = self._load_spilled(key)
        if spilled is not None:
            # Promote back into the resident tier (the spill files are
            # kept, so a future re-eviction skips the rewrite).
            return self.put(key, spilled)
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
                spill_hits=int(self._spill_hits.value),
                spills=int(self._spills.value),
                spilled_entries=len(self._spilled),
                spilled_bytes=self._spilled_bytes,
                spill_scans=int(self._spill_scans.value),
            )

    def clear(self) -> None:
        """Drop every trace — both tiers — and zero the statistics.

        The spill tier is purged along with the resident one: a cleared
        cache must not resurrect pre-clear traces from disk, and its
        ``spilled_bytes`` gauge must drop to zero just like
        ``resident_bytes`` (the PR 6 stale-gauge fix, applied to the
        second tier).
        """
        with self._lock:
            self._entries.clear()
            self._resident_bytes = 0
            spill_names = [name for name, _ in self._spilled.values()]
            self._spilled.clear()
            self._spilled_bytes = 0
            self._hits.reset()
            self._misses.reset()
            self._evictions.reset()
            self._spills.reset()
            self._spill_hits.reset()
            # spill_scans is deliberately *not* reset: it counts
            # directory scans over the cache's lifetime, and clearing
            # performs none (accounting stays incremental).
        if self.spill_dir is not None:
            for name in spill_names:
                shutil.rmtree(self.spill_dir / name, ignore_errors=True)
        # The registry gauges track the last put()/spill; without this a
        # cleared (or replaced) cache keeps reporting stale residency
        # for the rest of the process.
        obs_metrics.set_gauge("trace_cache.resident_bytes", 0)
        obs_metrics.set_gauge("trace_cache.spilled_bytes", 0)


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
