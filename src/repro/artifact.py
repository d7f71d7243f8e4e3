"""Crash-safe persistent artifacts: one write path and one checked read.

Three stores outlive a process: the profiling disk cache
(:mod:`repro.perf.diskcache`), a campaign directory
(:mod:`repro.campaign`) and the run ledger (:mod:`repro.obs.history`).
Each writes every file through :func:`atomic_write`, and reads JSON back
through :func:`read_json_object` or :func:`read_checksummed`.  No other
module renames a file into place (``tests/test_crash_matrix.py`` lints
for it), which is what lets one crash matrix walk every write boundary.

* **Atomic write.**  The bytes go to a ``.tmp-*.part`` file in the
  target's directory, then :func:`os.replace` renames it over the
  target.  A reader, or a crash at any point, sees the old complete
  file or the new one, never a prefix.  The temporary file is unlinked
  on any exception; only a hard kill leaves one behind, and no reader
  globs ``*.part``.  There is no fsync: the guarantee covers a killed
  process, not a lost machine.
* **Self-checksummed JSON.**  A document's ``checksum`` field is the
  sha256 of the canonical JSON (sorted keys, no whitespace) of every
  other field.  The file is the document dumped with ``indent=2,
  sort_keys=True`` plus a trailing newline.
* **Checked read.**  Both readers return ``None`` for a missing file,
  and for one that exists but cannot be trusted: unreadable, not JSON,
  not an object or, checksummed, the wrong ``schema`` or ``checksum``.
  A damaged file also bumps its store's counter (``diskcache.corrupt``,
  ``campaign.corrupt`` or ``history.corrupt``; see
  :func:`count_corrupt`), so a fallback taken because of damage shows
  up in ``repro obs`` output.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.obs import metrics as obs_metrics

__all__ = [
    "atomic_write",
    "count_corrupt",
    "read_checksummed",
    "read_json_object",
    "write_checksummed",
]

PathLike = Union[str, Path]


def atomic_write(path: PathLike, data: Union[bytes, str]) -> Path:
    """Replace ``path`` with ``data`` (text is UTF-8) in one rename."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=".tmp-", suffix=".part"
    )
    try:
        with os.fdopen(handle, "wb") as temp:
            temp.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def _without_checksum(document: dict) -> dict:
    return {key: value for key, value in document.items() if key != "checksum"}


def _checksum(document: dict) -> str:
    """sha256 of the canonical JSON of ``document`` minus ``checksum``."""
    canonical = json.dumps(
        _without_checksum(document), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_checksummed(path: PathLike, document: dict) -> Path:
    """Atomically write ``document`` with a fresh ``checksum`` field."""
    sealed = _without_checksum(document)
    sealed["checksum"] = _checksum(sealed)
    text = json.dumps(sealed, indent=2, sort_keys=True) + "\n"
    return atomic_write(path, text)


def count_corrupt(counter: str) -> None:
    """Count one damaged file of a store.

    The counter is always live (not gated on ``--obs``): damage is rare,
    and a test or a later snapshot must see it whatever the mode.
    """
    obs_metrics.counter(counter).add()


def read_json_object(path: PathLike, counter: str) -> Optional[dict]:
    """The JSON object stored at ``path``, or ``None``.

    ``None`` means the file is missing, or exists but is unreadable, is
    not JSON or is not an object; the latter also counts ``counter``.
    """
    try:
        document = json.loads(Path(path).read_bytes())
    except FileNotFoundError:
        return None
    except (OSError, ValueError):
        document = None
    if not isinstance(document, dict):
        count_corrupt(counter)
        return None
    return document


def read_checksummed(
    path: PathLike, schema: str, counter: str
) -> Optional[dict]:
    """A self-checksummed document of ``schema``, or ``None``.

    Like :func:`read_json_object`, and a document whose ``schema`` or
    ``checksum`` field disagrees is damaged too.
    """
    document = read_json_object(path, counter)
    if document is None:
        return None
    if document.get("schema") != schema or (
        document.get("checksum") != _checksum(document)
    ):
        count_corrupt(counter)
        return None
    return document
