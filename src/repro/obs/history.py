"""Append-only run-history ledger for observed runs.

Every ``--obs`` run's manifest is appended to a ledger under
``<obs dir>/history/`` as one content-checksummed JSON document, so
baselines (:mod:`repro.obs.baseline`), ``repro obs-report`` and
``repro obs {history,diff,check}`` can reason about the last N runs.
The run documents are the whole ledger; nothing else lists them.

Layout::

    .repro-obs/history/
        000000-4f6a1c2b9d.json  # schema, id, seq, checksum, run_key, manifest
        000001-8e02d7aa31.json

Properties:

* **One write per run.**  :func:`record_run` writes the run document
  with one :func:`repro.artifact.atomic_write`, so a crash leaves the
  run recorded or not, never half.  Its sequence number is one past the
  highest file name on disk, damaged documents included, so a number
  is not reused while its file exists.
* **Verified on every read.**  A run's id embeds its sequence number
  and the SHA-256 of its manifest's canonical JSON.  A run document
  counts only if its schema, checksum, id, file name and ``run_key``
  agree; a damaged one counts ``history.corrupt`` and is left out, so
  corruption surfaces as a skipped run instead of a poisoned baseline.
  :func:`list_runs` reads every document; :func:`load_run` of
  ``latest`` or a negative offset reads newest first and stops at the
  run it names.
* **Keyed runs.**  Each run carries a ``run_key`` — a digest of the
  command plus its argv with obs-only flags scrubbed — so baselines
  only ever compare statistically like-for-like invocations.  The key
  is checked against the manifest it was computed from, which makes
  the scrub rule part of the format.
* **Bounded.**  :func:`prune` keeps the newest ``keep`` run files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro import artifact
from repro.obs.manifest import manifest_dir

__all__ = [
    "RunInfo",
    "history_dir",
    "checksum_manifest",
    "run_key",
    "scrub_argv",
    "record_run",
    "list_runs",
    "load_run",
    "resolve_run",
    "prune",
    "HISTORY_DIR_NAME",
]

PathLike = Union[str, Path]

#: Ledger subdirectory inside the obs directory.
HISTORY_DIR_NAME = "history"

_RUN_SCHEMA = "repro.obs.history.run/1"

#: A run id, which is also its document's file stem:
#: ``<seq>-<checksum prefix>``.
_RUN_ID = re.compile(r"(\d+)-[0-9a-f]+")

#: Counter of damaged run documents.
_CORRUPT = "history.corrupt"

#: CLI flags that configure observation itself; scrubbed from the run
#: key so e.g. ``--trace-out /tmp/x.json`` or ``--profile all`` doesn't
#: split the series.
_OBS_FLAGS = ("--obs", "--trace-out", "--metrics-out", "--profile")


@dataclasses.dataclass(frozen=True)
class RunInfo:
    """One verified run document, as listed by :func:`list_runs`."""

    id: str
    seq: int
    checksum: str
    run_key: str
    command: str
    elapsed_s: float

    def to_dict(self) -> dict:
        """JSON-serializable form (one ``obs history --json`` entry)."""
        return dataclasses.asdict(self)


def history_dir(directory: Optional[PathLike] = None) -> Path:
    """The ledger directory under the obs dir (not created)."""
    return manifest_dir(directory) / HISTORY_DIR_NAME


def checksum_manifest(manifest: dict) -> str:
    """SHA-256 hex digest of the manifest's canonical JSON."""
    canonical = json.dumps(
        manifest, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def scrub_argv(argv: Sequence[str]) -> List[str]:
    """Drop obs-only flags (and their values) from an argv list."""
    scrubbed: List[str] = []
    skip_next = False
    for token in argv:
        if skip_next:
            skip_next = False
            continue
        if token in _OBS_FLAGS:
            skip_next = True
            continue
        if any(token.startswith(flag + "=") for flag in _OBS_FLAGS):
            continue
        scrubbed.append(token)
    return scrubbed


def run_key(command: str, argv: Sequence[str]) -> str:
    """Digest identifying statistically comparable invocations."""
    payload = json.dumps([command, scrub_argv(argv)], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _manifest_key(manifest: dict) -> str:
    """The ``run_key`` a run document records for ``manifest``."""
    return run_key(str(manifest.get("command", "?")), manifest.get("argv", []))


def _run_path(target: Path, run_id: str) -> Path:
    return target / f"{run_id}.json"


def _run_files(target: Path) -> List[Tuple[int, Path]]:
    """Every run document on disk, damaged ones too, by sequence number."""
    files = []
    for path in target.glob("*-*.json"):
        match = _RUN_ID.fullmatch(path.stem)
        if match:
            files.append((int(match.group(1)), path))
    files.sort()
    return files


def _run_id(seq: int, checksum: str) -> str:
    return f"{seq:06d}-{checksum[:10]}"


def _info_from_document(document: dict) -> RunInfo:
    manifest = document.get("manifest", {})
    return RunInfo(
        id=str(document["id"]),
        seq=int(document["seq"]),
        checksum=str(document["checksum"]),
        run_key=str(document.get("run_key", "")),
        command=str(manifest.get("command", "?")),
        elapsed_s=float(manifest.get("elapsed_s", 0.0)),
    )


def _read_run(path: Path) -> Optional[dict]:
    """The run document at ``path`` if it verifies, else ``None``."""
    document = artifact.read_json_object(path, _CORRUPT)
    if document is None:
        return None
    try:
        manifest = document["manifest"]
        checksum = checksum_manifest(manifest)
        valid = (
            document["schema"] == _RUN_SCHEMA
            and document["checksum"] == checksum
            and document["run_key"] == _manifest_key(manifest)
            and document["id"] == path.stem
            == _run_id(document["seq"], checksum)
        )
    except (AttributeError, KeyError, TypeError, ValueError):
        valid = False
    if not valid:
        artifact.count_corrupt(_CORRUPT)
        return None
    return document


def list_runs(directory: Optional[PathLike] = None) -> List[RunInfo]:
    """The verified run documents in recording order (oldest first).

    Reads every run document and writes nothing.  A damaged one is left
    out and counts ``history.corrupt``.
    """
    documents = [
        _read_run(path) for _, path in _run_files(history_dir(directory))
    ]
    return [
        _info_from_document(document)
        for document in documents
        if document is not None
    ]


def record_run(
    manifest: dict, directory: Optional[PathLike] = None
) -> RunInfo:
    """Append one manifest to the ledger; returns its :class:`RunInfo`.

    One atomic write.  The sequence number follows the highest one on
    disk, read from the file names without verifying the documents.
    """
    target = history_dir(directory)
    files = _run_files(target)
    seq = (files[-1][0] + 1) if files else 0
    checksum = checksum_manifest(manifest)
    run_id = _run_id(seq, checksum)
    document = {
        "schema": _RUN_SCHEMA,
        "id": run_id,
        "seq": seq,
        "checksum": checksum,
        "run_key": _manifest_key(manifest),
        "manifest": manifest,
    }
    artifact.atomic_write(
        _run_path(target, run_id),
        json.dumps(document, indent=2, sort_keys=True),
    )
    return _info_from_document(document)


def _tail_offset(reference: str) -> Optional[int]:
    """How many runs back ``reference`` points (1 = the newest), if
    it is ``latest`` or a negative offset; else ``None``."""
    if reference == "latest":
        return 1
    try:
        offset = int(reference)
    except ValueError:
        return None
    return -offset if offset < 0 else None


def _newest_documents(target: Path, count: int) -> List[dict]:
    """Up to ``count`` verified run documents, newest first.

    Reads files from the newest down and stops at the ``count``-th that
    verifies; fewer means every document on disk was read.
    """
    documents: List[dict] = []
    for _, path in reversed(_run_files(target)):
        if len(documents) == count:
            break
        document = _read_run(path)
        if document is not None:
            documents.append(document)
    return documents


def resolve_run(
    reference: str, runs: Sequence[RunInfo]
) -> RunInfo:
    """Find one run by reference: id, unique id prefix, seq, or offset.

    ``latest`` and negative offsets (``-1`` = newest, ``-2`` = the one
    before) address the tail; a bare non-negative integer addresses a
    sequence number; anything else matches run ids by prefix.
    """
    from repro.errors import AnalysisError

    if not runs:
        raise AnalysisError("run history is empty; run with --obs first")
    tail = _tail_offset(reference)
    if tail is not None:
        if tail <= len(runs):
            return runs[-tail]
        raise AnalysisError(
            f"offset {reference} out of range (history has "
            f"{len(runs)} runs)"
        )
    try:
        offset = int(reference)
    except ValueError:
        offset = None
    if offset is not None:
        for info in runs:
            if info.seq == offset:
                return info
        raise AnalysisError(f"no run with sequence number {reference}")
    matches = [info for info in runs if info.id.startswith(reference)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise AnalysisError(f"no run matching {reference!r}")
    raise AnalysisError(
        f"ambiguous run reference {reference!r} "
        f"({len(matches)} matches)"
    )


def load_run(
    reference: str, directory: Optional[PathLike] = None
) -> dict:
    """Load and verify one run document by reference.

    An exact run id reads that document alone, so a caller loading runs
    it has already listed does not verify the whole ledger again per
    run.  ``latest`` and a negative offset ``-k`` read the newest
    documents until ``k`` verify, so ``repro obs-report`` reads one
    document however long the ledger grows.  Any other reference
    resolves against :func:`list_runs` (see :func:`resolve_run`).
    """
    from repro.errors import AnalysisError

    target = history_dir(directory)
    tail = _tail_offset(reference)
    if _RUN_ID.fullmatch(reference) and _run_path(target, reference).is_file():
        run_id = reference
    elif tail is not None:
        newest = _newest_documents(target, tail)
        if len(newest) == tail:
            return newest[-1]
        # Too few runs verify, so the walk read the whole ledger:
        # resolve_run words the error from that listing.
        run_id = resolve_run(
            reference,
            [_info_from_document(document) for document in newest[::-1]],
        ).id
    else:
        run_id = resolve_run(reference, list_runs(directory)).id
    document = _read_run(_run_path(target, run_id))
    if document is None:
        raise AnalysisError(
            f"run {run_id} failed checksum verification "
            f"(ledger entry missing or corrupted)"
        )
    return document


def prune(
    keep: int, directory: Optional[PathLike] = None
) -> int:
    """Keep only the newest ``keep`` run files; returns the count removed.

    Files go oldest first by name, damaged ones included, so a prune
    killed midway leaves the newest runs.
    """
    from repro.errors import ConfigurationError

    if keep < 0:
        raise ConfigurationError("keep must be >= 0")
    files = _run_files(history_dir(directory))
    removed = 0
    for _, path in files[: max(0, len(files) - keep)]:
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed
