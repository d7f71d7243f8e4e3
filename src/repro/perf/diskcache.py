"""Content-addressed on-disk cache for profiling results.

Profiling a (workload, machine, engine) tuple is deterministic, so the
result can outlive the process: :class:`DiskCache` persists one
:class:`~repro.perf.counters.CounterReport` per cache key under a cache
root, making warm re-runs of the 80-workload x 7-machine sweep (and any
larger cross-suite study) load from disk instead of recomputing.

Keying — :func:`cache_key` hashes a canonical encoding of everything
that determines the result:

* the full workload spec (instruction mix, reuse/branch profiles, ...),
* the full machine config (cache/TLB/predictor geometries, latencies),
* the engine name and the parameters that shape its results
  (:meth:`~repro.perf.profiler.EngineConfig.result_params`),
* a schema version plus a digest of the engine source files
  (:func:`code_version`), so editing the models invalidates stale
  entries automatically.

Storage — entries live at ``<root>/<k[:2]>/<key>.rpc`` as a magic
header, a SHA-256 payload checksum and a pickled report.  Writes go
through a temporary file in the same directory followed by
``os.replace``, so readers never observe a partial entry and an
interrupted run leaves no corrupt files behind.  :meth:`DiskCache.load`
verifies magic and checksum and treats *any* damage (truncation,
bit-flips, unreadable pickle, wrong type) as a miss, unlinking the bad
file best-effort — corruption degrades to recompute, never to a crash.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Optional, Union

from repro.errors import ConfigurationError
from repro.perf.counters import CounterReport
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec

if TYPE_CHECKING:  # the profiler imports this module
    from repro.perf.profiler import EngineConfig

__all__ = [
    "DiskCache",
    "cache_key",
    "canonical_encoding",
    "code_version",
    "content_fingerprint",
    "default_cache_dir",
]

#: Bump to invalidate every existing cache entry on a format change.
SCHEMA_VERSION = 1

#: File header identifying (and versioning) the entry format.
MAGIC = b"repro-diskcache-v1\n"

#: Cache entry filename extension.
ENTRY_SUFFIX = ".rpc"

#: Environment variable naming the default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

# Source files whose content determines profiling results; hashed into
# every key so model changes invalidate the cache (globs are sorted for
# a stable digest).
_CODE_GLOBS = (
    "perf/analytic.py",
    "perf/trace_engine.py",
    "perf/counters.py",
    "uarch/*.py",
    "workloads/constants.py",
    "workloads/profiles.py",
    "workloads/synthesis.py",
)

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the engine/model source files (memoized per process)."""
    global _CODE_VERSION
    if _CODE_VERSION is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for pattern in _CODE_GLOBS:
            for path in sorted(package_root.glob(pattern)):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def canonical_encoding(value: object) -> object:
    """Recursively reduce a value to a deterministic JSON-able form.

    Dataclasses become ``{field: value}`` dicts tagged with the class
    name, enums their class-qualified value, mappings key-sorted dicts.
    Two structurally equal specs therefore always encode identically,
    and any parameter difference surfaces in the encoding.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        encoded = {
            field.name: canonical_encoding(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
        encoded["__class__"] = type(value).__name__
        return encoded
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {
            str(canonical_encoding(k)): canonical_encoding(v)
            for k, v in sorted(value.items(), key=lambda item: str(item[0]))
        }
    if isinstance(value, (list, tuple)):
        return [canonical_encoding(item) for item in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        # repr is the shortest round-tripping form: bit-exact identity.
        return repr(value)
    raise ConfigurationError(
        f"cannot canonicalize {type(value).__name__!r} for cache keying"
    )


@lru_cache(maxsize=4096)
def content_fingerprint(value: object) -> str:
    """Short content digest of one frozen config dataclass.

    Memoized per object (all config dataclasses are frozen and
    hashable), so hot paths — the profiler's per-pair cache identity —
    pay the canonicalization cost once per distinct spec or machine.
    Two structurally equal values always share a fingerprint; any field
    difference (not just the ``name`` tag) changes it.
    """
    encoded = json.dumps(
        canonical_encoding(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


def cache_key(
    spec: WorkloadSpec,
    machine: MachineConfig,
    engine_config: EngineConfig,
) -> str:
    """Content hash of everything that determines one profile result."""
    payload = {
        "schema": SCHEMA_VERSION,
        "code": code_version(),
        "workload": canonical_encoding(spec),
        "machine": canonical_encoding(machine),
        "engine": engine_config.engine,
        "params": engine_config.result_params(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def default_cache_dir() -> Optional[Path]:
    """The ``$REPRO_CACHE_DIR`` root, or ``None`` when unset."""
    value = os.environ.get(CACHE_DIR_ENV)
    return Path(value) if value else None


class DiskCache:
    """A directory of content-addressed, checksummed profile results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level sharding)."""
        return self.root / key[:2] / f"{key}{ENTRY_SUFFIX}"

    def _entries(self) -> Iterator[Path]:
        return self.root.glob(f"*/*{ENTRY_SUFFIX}")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def load(self, key: str) -> Optional[CounterReport]:
        """The stored report, or ``None`` on absence *or* corruption."""
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        report = self._decode(blob)
        if report is None:
            # Damaged entry: drop it so the slot is rewritten cleanly.
            try:
                path.unlink()
            except OSError:
                pass
        return report

    @staticmethod
    def _decode(blob: bytes) -> Optional[CounterReport]:
        if not blob.startswith(MAGIC):
            return None
        body = blob[len(MAGIC):]
        newline = body.find(b"\n")
        if newline != 64:  # hex SHA-256 checksum line
            return None
        checksum, payload = body[:newline], body[newline + 1:]
        if hashlib.sha256(payload).hexdigest().encode() != checksum:
            return None
        try:
            report = pickle.loads(payload)
        except Exception:
            return None
        return report if isinstance(report, CounterReport) else None

    def store(self, key: str, report: CounterReport) -> Path:
        """Atomically persist ``report`` under ``key``.

        The entry is fully serialized before any file is created, then
        written to a temporary file and renamed into place, so a
        concurrent reader (or an interrupt at any point) sees either no
        entry or a complete one — never a partial file.
        """
        payload = pickle.dumps(report, protocol=4)
        blob = MAGIC + hashlib.sha256(payload).hexdigest().encode() + b"\n" + payload
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".part"
        )
        try:
            with os.fdopen(handle, "wb") as temp:
                temp.write(blob)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        return path

    def clear(self) -> int:
        """Remove every entry (and stray temporaries); entry count removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for stray in list(self.root.glob("*/.tmp-*.part")):
            try:
                stray.unlink()
            except OSError:
                pass
        return removed

    def prune(self, max_entries: int) -> int:
        """Evict oldest-modified entries beyond ``max_entries``."""
        if max_entries < 0:
            raise ConfigurationError("max_entries must be >= 0")
        entries = sorted(
            self._entries(), key=lambda p: (p.stat().st_mtime, p.name)
        )
        excess = entries[: max(0, len(entries) - max_entries)]
        removed = 0
        for path in excess:
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
