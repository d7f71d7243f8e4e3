"""Compact columnar on-disk result store for campaign sweeps.

A campaign lands one row per (machine, workload) pair and one float64
column per counter metric.  Rows are machine-major (``row = machine_index
* n_workloads + workload_index``) so one machine's feature block is a
contiguous slice, and the whole store reshapes into one feature row per
machine.  Each column is a plain ``.npy`` file preallocated with
:func:`numpy.lib.format.open_memmap` and filled with NaN; shards
overwrite their row slices in place, so an interrupted-and-resumed
campaign converges on a file byte-identical to an uninterrupted one
(deterministic values land in preallocated offsets — write order never
shows in the bytes).

``schema.json`` carries the row/column layout plus a content checksum of
itself; :meth:`CampaignStore.seal` adds per-column sha256 checksums,
which are both the integrity check and the campaign's bit-identity
digest surface (the resume acceptance gate compares them).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.obs import metrics as obs_metrics
from repro.obs.manifest import atomic_write_text

__all__ = ["CampaignStore", "SCHEMA_VERSION", "schema_checksum"]

#: Bumped when the on-disk layout changes; ``open`` refuses other versions.
SCHEMA_VERSION = "repro.campaign.store/1"

_SCHEMA_FILE = "schema.json"
_COLUMN_DIR = "columns"


def _canonical(document: dict) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def schema_checksum(document: dict) -> str:
    """Content checksum of a schema document (sans its own checksum)."""
    body = {key: value for key, value in document.items() if key != "checksum"}
    return hashlib.sha256(_canonical(body).encode()).hexdigest()


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class CampaignStore:
    """Append-by-shard columnar matrix of campaign counter values.

    Create once per campaign with :meth:`create`, reopen (e.g. on
    ``--resume`` or from the fold stage) with :meth:`open`.  Writers use
    :meth:`write_rows`; readers use :meth:`column` (one memory-mapped
    column) or :meth:`machine_matrix` (the whole store in memory, one
    column read per metric — what the fold stage analyzes).
    """

    def __init__(
        self,
        root: Path,
        machines: Sequence[str],
        workloads: Sequence[str],
        metrics: Sequence[str],
        extra: Optional[dict] = None,
        checksums: Optional[Dict[str, str]] = None,
    ) -> None:
        self.root = Path(root)
        self.machines = list(machines)
        self.workloads = list(workloads)
        self.metrics = list(metrics)
        self.extra = dict(extra or {})
        self.checksums = dict(checksums or {})

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.machines) * len(self.workloads)

    def row_of(self, machine_index: int, workload_index: int) -> int:
        """Row index of one (machine, workload) pair (machine-major)."""
        return machine_index * len(self.workloads) + workload_index

    def column_path(self, metric: str) -> Path:
        """On-disk ``.npy`` path of one metric column."""
        if metric not in self.metrics:
            raise ConfigurationError(f"store has no column {metric!r}")
        return self.root / _COLUMN_DIR / f"{metric}.npy"

    # ------------------------------------------------------------------
    # creation / opening
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        root: Union[str, Path],
        machines: Sequence[str],
        workloads: Sequence[str],
        metrics: Sequence[str],
        extra: Optional[dict] = None,
    ) -> "CampaignStore":
        """Preallocate the column files and write the schema."""
        if not machines or not workloads or not metrics:
            raise ConfigurationError(
                "campaign store needs machines, workloads and metrics"
            )
        if len(set(metrics)) != len(metrics):
            raise ConfigurationError("duplicate metric columns")
        store = cls(Path(root), machines, workloads, metrics, extra)
        column_dir = store.root / _COLUMN_DIR
        column_dir.mkdir(parents=True, exist_ok=True)
        for metric in store.metrics:
            column = np.lib.format.open_memmap(
                store.column_path(metric),
                mode="w+",
                dtype=np.float64,
                shape=(store.rows,),
            )
            column[:] = np.nan
            column.flush()
            del column
        store._write_schema()
        obs_metrics.incr("campaign.store.created")
        return store

    @classmethod
    def open(cls, root: Union[str, Path]) -> "CampaignStore":
        """Open an existing store, verifying the schema checksum."""
        schema_path = Path(root) / _SCHEMA_FILE
        if not schema_path.is_file():
            raise ConfigurationError(f"no campaign store at {root}")
        document = json.loads(schema_path.read_text())
        if document.get("schema") != SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported store schema {document.get('schema')!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        if document.get("checksum") != schema_checksum(document):
            raise ConfigurationError(f"corrupt store schema at {schema_path}")
        return cls(
            Path(root),
            document["machines"],
            document["workloads"],
            document["metrics"],
            document.get("extra"),
            document.get("column_checksums"),
        )

    def _schema_document(self) -> dict:
        document = {
            "schema": SCHEMA_VERSION,
            "machines": self.machines,
            "workloads": self.workloads,
            "metrics": self.metrics,
            "rows": self.rows,
            "extra": self.extra,
        }
        if self.checksums:
            document["column_checksums"] = self.checksums
        document["checksum"] = schema_checksum(document)
        return document

    def _write_schema(self) -> None:
        atomic_write_text(
            self.root / _SCHEMA_FILE,
            json.dumps(self._schema_document(), indent=2, sort_keys=True)
            + "\n",
        )

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------

    def write_rows(self, row_start: int, values: np.ndarray) -> None:
        """Land a contiguous block of rows (``values``: rows × metrics).

        Each column file is opened ``r+``, the slice assigned, and the
        mapping flushed — the only bytes touched are the block's own, so
        concurrent shards at disjoint row ranges never conflict.
        """
        block = np.asarray(values, dtype=np.float64)
        if block.ndim != 2 or block.shape[1] != len(self.metrics):
            raise ConfigurationError(
                f"expected (rows, {len(self.metrics)}) block, "
                f"got {block.shape}"
            )
        row_end = row_start + block.shape[0]
        if row_start < 0 or row_end > self.rows:
            raise ConfigurationError(
                f"rows [{row_start}, {row_end}) outside store of {self.rows}"
            )
        for index, metric in enumerate(self.metrics):
            column = np.lib.format.open_memmap(
                self.column_path(metric), mode="r+"
            )
            column[row_start:row_end] = block[:, index]
            column.flush()
            del column
        obs_metrics.incr("campaign.store.rows_written", block.shape[0])

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------

    def column(self, metric: str) -> np.ndarray:
        """One full column, memory-mapped read-only."""
        return np.load(self.column_path(metric), mmap_mode="r")

    def machine_matrix(self) -> np.ndarray:
        """One feature row per machine: ``(machines, workloads × metrics)``.

        Row ``i`` is machine ``i``'s (workloads × metrics) block raveled
        workload-major, so its features read ``workload:metric`` in
        schema order; unlanded cells stay NaN.  One column read per
        metric.
        """
        shape = (len(self.machines), len(self.workloads))
        matrix = np.empty(shape + (len(self.metrics),))
        for index, metric in enumerate(self.metrics):
            matrix[:, :, index] = self.column(metric).reshape(shape)
        return matrix.reshape(len(self.machines), -1)

    def landed_rows(self) -> int:
        """Rows written so far (NaN marks never-written slots)."""
        landed = self.rows
        for metric in self.metrics:
            landed = min(
                landed, int(np.count_nonzero(~np.isnan(self.column(metric))))
            )
        return landed

    # ------------------------------------------------------------------
    # sealing / verification
    # ------------------------------------------------------------------

    def column_checksums(self) -> Dict[str, str]:
        """Fresh per-column sha256 digests of the on-disk bytes."""
        return {
            metric: _file_sha256(self.column_path(metric))
            for metric in self.metrics
        }

    def seal(self) -> Dict[str, str]:
        """Record per-column checksums in the schema; return them."""
        self.checksums = self.column_checksums()
        self._write_schema()
        return dict(self.checksums)

    def digest(self) -> str:
        """One content digest over the sealed per-column checksums."""
        checksums = self.checksums or self.column_checksums()
        body = _canonical([[metric, checksums[metric]] for metric in self.metrics])
        return hashlib.sha256(body.encode()).hexdigest()

    def verify(self) -> List[str]:
        """Metrics whose on-disk bytes no longer match the sealed sums."""
        if not self.checksums:
            raise ConfigurationError("store has not been sealed")
        fresh = self.column_checksums()
        return [
            metric
            for metric in self.metrics
            if fresh[metric] != self.checksums.get(metric)
        ]
