"""Campaign runner: sharded, resumable design-space sweeps.

A *campaign* profiles a generated machine population
(:mod:`repro.campaign.generator`) against a workload list and lands the
counter matrix in the columnar store (:mod:`repro.campaign.store`).
A run is three steps in a fixed order: ``generate`` the machines and
the store, profile each ``shard-NNNN`` machine slice in turn, then
``fold`` the store.

Sharding & resume
-----------------

Machines are partitioned into fixed slices of ``shard_machines``.  Each
completed shard checkpoints a content-checksummed manifest
(``shards/shard-NNNN.json``) carrying its *shard key* — a digest over
exactly the ingredients of the profiler's disk-cache key (engine
parameters, code version, workload and machine content fingerprints)
plus the target row range — and the per-pair report digests of its
results.  ``resume`` skips every shard whose manifest checksum and
shard key still match, so a killed 1000-machine campaign restarts in
seconds: surviving shards are never recomputed and the rows they wrote
into the preallocated store are untouched, which is what makes the
resumed store **byte-identical** (per-column checksums) to an
uninterrupted run.  Completed shards are also appended to the
run-history ledger (:mod:`repro.obs.history`) when ledger recording is
on, so campaign progress is longitudinal like every other run.

Scheduling for fused replay
---------------------------

Within a shard, pairs are laid out workload-major with machines sorted
by :func:`~repro.campaign.generator.structure_key` — the executor's
:func:`~repro.perf.executor.workload_chunks` then keeps same-workload
pairs adjacent, and the structure sort lands same-geometry machines in
the same chunks, so each fused batch shares its set-partition and
per-level replay passes across hundreds of machines.  The dispatch
order is a pure permutation: results are reassembled into canonical
machine-major rows before they touch the store, so scheduling can never
change a byte of output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import artifact
from repro.errors import ConfigurationError
from repro.campaign.generator import (
    generate_machines,
    machines_digest,
    structure_key,
)
from repro.campaign.store import CampaignStore
from repro.obs import metrics as obs_metrics
from repro.obs.progress import progress as obs_progress
from repro.obs.trace import span
from repro.perf.counters import SIMILARITY_METRICS, CounterReport
from repro.perf.diskcache import (
    canonical_encoding,
    code_version,
    content_fingerprint,
)
from repro.perf.executor import ProfilingExecutor
from repro.perf.profiler import EngineConfig, Profiler
from repro.stats.kmeans import kmeans
from repro.stats.pca import fit_pca
from repro.uarch.machine import PAPER_MACHINE_NAMES, MachineConfig
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = [
    "CampaignConfig",
    "CampaignRunner",
    "pair_digest",
]

_CAMPAIGN_SCHEMA = "repro.campaign/1"
_SHARD_SCHEMA = "repro.campaign.shard/1"
_CAMPAIGN_FILE = "campaign.json"
_SHARD_DIR = "shards"
_STORE_DIR = "store"
_ANALYSIS_FILE = "analysis.json"


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's *results*.

    The worker count lives on the runner, not here: it changes wall
    time, never bytes, so a campaign may be resumed under a different
    worker count and still verify.
    """

    machines: int
    workloads: Tuple[str, ...]
    seed: int = 2017
    engine: str = "trace"
    trace_instructions: int = 200_000
    shard_machines: int = 64
    anchors: Tuple[str, ...] = PAPER_MACHINE_NAMES
    clusters: int = 7

    def __post_init__(self) -> None:
        if self.machines < 1:
            raise ConfigurationError("machines must be >= 1")
        if not self.workloads:
            raise ConfigurationError("workloads must be non-empty")
        self.engine_config  # validates the engine parameters
        if self.shard_machines < 1:
            raise ConfigurationError("shard_machines must be >= 1")
        if self.clusters < 1:
            raise ConfigurationError("clusters must be >= 1")

    @property
    def engine_config(self) -> EngineConfig:
        """The campaign's engine parameters as one value."""
        return EngineConfig(self.engine, self.trace_instructions, self.seed)

    @property
    def n_shards(self) -> int:
        return -(-self.machines // self.shard_machines)

    def fingerprint(self) -> str:
        """Content digest of the config (the campaign's identity)."""
        return content_fingerprint(self)

    def to_dict(self) -> dict:
        """JSON-ready form, inverse of :meth:`from_dict`."""
        return {
            "machines": self.machines,
            "workloads": list(self.workloads),
            "seed": self.seed,
            "engine": self.engine,
            "trace_instructions": self.trace_instructions,
            "shard_machines": self.shard_machines,
            "anchors": list(self.anchors),
            "clusters": self.clusters,
        }

    @classmethod
    def from_dict(cls, document: dict) -> "CampaignConfig":
        """Rebuild a config from its :meth:`to_dict` form."""
        return cls(
            machines=int(document["machines"]),
            workloads=tuple(document["workloads"]),
            seed=int(document["seed"]),
            engine=document["engine"],
            trace_instructions=int(document["trace_instructions"]),
            shard_machines=int(document["shard_machines"]),
            anchors=tuple(document["anchors"]),
            clusters=int(document["clusters"]),
        )


def pair_digest(report: CounterReport) -> str:
    """Content digest of one profile result (the bit-identity unit)."""
    encoded = json.dumps(
        canonical_encoding(report), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(encoded.encode()).hexdigest()


class CampaignRunner:
    """Drives one campaign directory: generate, shards, fold.

    Parameters
    ----------
    directory:
        The campaign directory (created on first run): ``campaign.json``
        + ``store/`` + ``shards/`` + ``analysis.json``.
    config:
        The campaign definition.  Omit it to adopt the one recorded in
        ``campaign.json`` (the ``resume``/``status``/``fold`` paths).
    profiler:
        Optional pre-built profiler (the CLI threads its cache flags
        through one); must agree with the config's engine parameters.
        Built from the config when omitted.
    jobs:
        Worker count, exactly as on
        :class:`~repro.perf.executor.ProfilingExecutor`; validated
        here, before the campaign touches disk.
    backend:
        Only ``"process"``; see the comment in ``__init__``.
    ledger:
        When true, every completed shard is appended to the run-history
        ledger (``ledger_dir`` or the default obs dir) as a
        ``campaign-shard`` run.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        config: Optional[CampaignConfig] = None,
        profiler: Optional[Profiler] = None,
        jobs: int = 1,
        backend: str = "process",
        ledger: bool = False,
        ledger_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        # Kept only for benchmarks/e2e/op.py:87 (_campaign), which
        # passes backend="process"; --jobs N always runs N processes.
        if backend != "process":
            raise ConfigurationError(
                f"unknown backend {backend!r}; --jobs N runs N processes"
            )
        self.directory = Path(directory)
        self.config = config
        self._profiler = profiler
        self.jobs = jobs
        self.ledger = ledger
        self.ledger_dir = ledger_dir

    # ------------------------------------------------------------------
    # configuration / layout
    # ------------------------------------------------------------------

    @property
    def store_dir(self) -> Path:
        return self.directory / _STORE_DIR

    def _shard_path(self, index: int) -> Path:
        return self.directory / _SHARD_DIR / f"shard-{index:04d}.json"

    def load_config(self) -> CampaignConfig:
        """The config recorded in ``campaign.json`` (validated)."""
        document = artifact.read_checksummed(
            self.directory / _CAMPAIGN_FILE, _CAMPAIGN_SCHEMA,
            "campaign.corrupt",
        )
        if document is None:
            raise ConfigurationError(
                f"no campaign at {self.directory} "
                f"(missing or corrupt {_CAMPAIGN_FILE})"
            )
        return CampaignConfig.from_dict(document["config"])

    def _resolve_config(self, resume: bool) -> CampaignConfig:
        recorded = (self.directory / _CAMPAIGN_FILE).is_file()
        if not resume:
            if recorded:
                raise ConfigurationError(
                    f"campaign already exists at {self.directory}; "
                    "use resume to continue it"
                )
            if self.config is None:
                raise ConfigurationError("a fresh campaign needs a config")
            return self.config
        if not recorded:
            # Resuming a campaign that died before campaign.json landed
            # degrades to a fresh run (nothing was checkpointed yet).
            if self.config is None:
                raise ConfigurationError(
                    f"nothing to resume at {self.directory}"
                )
            return self.config
        loaded = self.load_config()
        if self.config is not None and (
            self.config.fingerprint() != loaded.fingerprint()
        ):
            raise ConfigurationError(
                "resume config disagrees with the recorded campaign "
                f"at {self.directory}"
            )
        return loaded

    def _make_profiler(self, config: CampaignConfig) -> Profiler:
        if self._profiler is None:
            self._profiler = Profiler(
                **dataclasses.asdict(config.engine_config)
            )
        profiler = self._profiler
        if profiler.engine_config != config.engine_config:
            raise ConfigurationError(
                "profiler engine parameters disagree with the campaign "
                "config (engine/instructions/seed must match)"
            )
        return profiler

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------

    def run(self, resume: bool = False) -> dict:
        """Generate, run every shard, fold; returns the campaign summary.

        An existing store that is sealed (a finished campaign being
        resumed) is verified before any step reads or writes it.
        """
        config = self._resolve_config(resume)
        profiler = self._make_profiler(config)
        with span(
            "campaign.run",
            machines=config.machines,
            workloads=len(config.workloads),
            shards=config.n_shards,
            resume=resume,
        ):
            specs = [get_workload(name) for name in config.workloads]
            completed = 0
            ticker = obs_progress("campaign.shards", total=config.n_shards)
            try:
                machines, store = self._run_generate(config, specs)
                for index in range(config.n_shards):
                    if self._run_shard(
                        config, profiler, specs, machines, store, index
                    ):
                        completed += 1
                    ticker.advance()
            finally:
                # A failed campaign closes its ticker too, so it never
                # stays live.
                ticker.close()
            with span("campaign.fold"):
                analysis = self._fold(config, store)
            checksums = store.seal()
        summary = {
            "directory": str(self.directory),
            "machines": config.machines,
            "workloads": list(config.workloads),
            "shards": {
                "total": config.n_shards,
                "computed": completed,
                "skipped": config.n_shards - completed,
            },
            "rows": store.rows,
            "digest": self.campaign_digest(),
            "store_digest": store.digest(),
            "column_checksums": checksums,
            "analysis": analysis,
        }
        return summary

    # ------------------------------------------------------------------
    # steps
    # ------------------------------------------------------------------

    def _run_generate(
        self, config: CampaignConfig, specs: Sequence[WorkloadSpec]
    ) -> Tuple[List[MachineConfig], CampaignStore]:
        with span("campaign.generate", machines=config.machines):
            machines = generate_machines(
                config.machines, seed=config.seed, anchors=config.anchors
            )
            self.directory.mkdir(parents=True, exist_ok=True)
            (self.directory / _SHARD_DIR).mkdir(exist_ok=True)
            if (self.store_dir / "schema.json").is_file():
                store = self._open_store()
                if store.machines != [m.name for m in machines] or (
                    store.workloads != [s.name for s in specs]
                ):
                    raise ConfigurationError(
                        "existing store disagrees with the campaign "
                        "population; refusing to overwrite"
                    )
            else:
                store = CampaignStore.create(
                    self.store_dir,
                    [m.name for m in machines],
                    [s.name for s in specs],
                    [metric.value for metric in SIMILARITY_METRICS],
                    extra={
                        "campaign": config.fingerprint(),
                        "machines_digest": machines_digest(machines),
                    },
                )
            artifact.write_checksummed(
                self.directory / _CAMPAIGN_FILE,
                {
                    "schema": _CAMPAIGN_SCHEMA,
                    "config": config.to_dict(),
                    "fingerprint": config.fingerprint(),
                    "machines_digest": machines_digest(machines),
                    "shards": config.n_shards,
                },
            )
            obs_metrics.incr("campaign.machines.generated", len(machines))
        return machines, store

    def _shard_slice(
        self, config: CampaignConfig, index: int
    ) -> Tuple[int, int]:
        start = index * config.shard_machines
        return start, min(start + config.shard_machines, config.machines)

    def _shard_key(
        self,
        config: CampaignConfig,
        specs: Sequence[WorkloadSpec],
        shard_machines: Sequence[MachineConfig],
        row_start: int,
    ) -> str:
        """Digest over the shard's disk-cache key ingredients.

        The ingredients :func:`repro.perf.diskcache.cache_key` hashes
        per pair — the engine and its result parameters, code version,
        spec and machine content — plus the target row range.  Content
        enters as each object's :func:`content_fingerprint`, a prefix
        of the per-object digest the disk key uses, so building the key
        encodes no spec or machine that already has its digest.  A
        resumed campaign recomputes a shard iff any of these changed,
        which is precisely when its disk-cache entries would also miss.
        """
        body = {
            "schema": _SHARD_SCHEMA,
            "campaign": config.fingerprint(),
            "code": code_version(),
            "engine": config.engine,
            "params": config.engine_config.result_params(),
            "metrics": [metric.value for metric in SIMILARITY_METRICS],
            "workloads": [content_fingerprint(spec) for spec in specs],
            "machines": [
                content_fingerprint(machine) for machine in shard_machines
            ],
            "row_start": row_start,
        }
        encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(encoded.encode()).hexdigest()

    def _shard_manifest(self, index: int) -> Optional[dict]:
        return artifact.read_checksummed(
            self._shard_path(index), _SHARD_SCHEMA, "campaign.corrupt"
        )

    def _run_shard(
        self,
        config: CampaignConfig,
        profiler: Profiler,
        specs: Sequence[WorkloadSpec],
        machines: Sequence[MachineConfig],
        store: CampaignStore,
        index: int,
    ) -> bool:
        """Profile one machine slice; returns False when checkpointed.

        The shard is skipped iff its manifest is intact *and* its shard
        key still matches — any config, code or population drift forces
        a recompute (whose disk-cache entries would miss anyway).
        """
        start, stop = self._shard_slice(config, index)
        slice_machines = list(machines[start:stop])
        n_workloads = len(specs)
        row_start = start * n_workloads
        key = self._shard_key(config, specs, slice_machines, row_start)
        manifest = self._shard_manifest(index)
        if manifest is not None and manifest.get("key") == key:
            obs_metrics.incr("campaign.shards.skipped")
            return False
        with span(
            "campaign.shard", shard=index, machines=len(slice_machines)
        ):
            started = time.perf_counter()
            # Structure-sorted, workload-major dispatch: maximal fused
            # batch sharing (see module docstring).  ``order`` is the
            # permutation back to canonical machine order.
            order = sorted(
                range(len(slice_machines)),
                key=lambda i: structure_key(slice_machines[i]),
            )
            pairs = [
                (spec, slice_machines[position])
                for spec in specs
                for position in order
            ]
            reports = self._profile_shard(profiler, pairs)
            elapsed = time.perf_counter() - started
            # Reassemble into canonical machine-major rows.
            values = np.empty(
                (len(slice_machines) * n_workloads, len(SIMILARITY_METRICS))
            )
            digests: List[str] = [""] * (len(slice_machines) * n_workloads)
            for w_index in range(n_workloads):
                for position, local in enumerate(order):
                    report = reports[w_index * len(slice_machines) + position]
                    row = local * n_workloads + w_index
                    values[row, :] = [
                        report.metrics[metric]
                        for metric in SIMILARITY_METRICS
                    ]
                    digests[row] = pair_digest(report)
            store.write_rows(row_start, values)
            self._checkpoint_shard(
                config, index, key, slice_machines, digests, elapsed
            )
            obs_metrics.incr("campaign.shards.completed")
            obs_metrics.incr("campaign.pairs.profiled", len(pairs))
        return True

    def _profile_shard(
        self, profiler: Profiler, pairs: Sequence[Tuple[WorkloadSpec, MachineConfig]]
    ) -> List[CounterReport]:
        """One executor sweep over a shard's pairs (crash-test seam)."""
        executor = ProfilingExecutor(profiler, jobs=self.jobs)
        return executor.run(pairs, progress_label="campaign.pairs")

    def _checkpoint_shard(
        self,
        config: CampaignConfig,
        index: int,
        key: str,
        slice_machines: Sequence[MachineConfig],
        digests: List[str],
        elapsed: float,
    ) -> None:
        pairs_digest = hashlib.sha256(
            "".join(digests).encode()
        ).hexdigest()
        artifact.write_checksummed(
            self._shard_path(index),
            {
                "schema": _SHARD_SCHEMA,
                "shard": index,
                "machines": [m.name for m in slice_machines],
                "rows": len(digests),
                "key": key,
                "pair_digests": digests,
                "pairs_digest": pairs_digest,
                "elapsed_s": elapsed,
            },
        )
        if self.ledger:
            from repro.obs import history as obs_history
            from repro.obs import manifest as obs_manifest

            snapshot = {
                "counters": {
                    "campaign.shard.pairs": float(len(digests)),
                    "campaign.shard.seconds": elapsed,
                }
            }
            manifest = obs_manifest.build_manifest(
                "campaign-shard",
                [self.directory.name, f"shard-{index:04d}"],
                [],
                snapshot,
                shard_key=key[:16],
                pairs_digest=pairs_digest,
            )
            obs_history.record_run(manifest, directory=self.ledger_dir)

    # ------------------------------------------------------------------
    # fold / status / digests
    # ------------------------------------------------------------------

    def _open_store(self) -> CampaignStore:
        """Open the store; a sealed one must still match its seal.

        A damaged sealed column raises instead of being read (a wrong
        fold) or re-sealed over (a resume that hides the damage).  An
        unsealed store — a campaign still running — is not hashed.
        """
        store = CampaignStore.open(self.store_dir)
        damaged = store.verify() if store.checksums else []
        if damaged:
            artifact.count_corrupt("campaign.corrupt")
            raise ConfigurationError(
                f"sealed campaign store at {self.store_dir} is damaged: "
                f"column(s) {', '.join(damaged)} no longer match their "
                "checksums"
            )
        return store

    def fold(self) -> dict:
        """PCA + k-means over every machine whose rows have landed.

        One exact fit per fold: the store is read once
        (:meth:`CampaignStore.machine_matrix`), the machines whose every
        cell has landed are kept, and ``fit_pca`` + ``kmeans`` (8
        k-means++ restarts) + representatives run over their rows.  So a
        mid-campaign fold analyzes the machines that finished, and a
        repeat fold writes the same ``analysis.json`` bytes.  A sealed
        store is verified first; damage raises
        :class:`~repro.errors.ConfigurationError` naming the columns.
        """
        config = self.config or self.load_config()
        return self._fold(config, self._open_store())

    def _fold(self, config: CampaignConfig, store: CampaignStore) -> dict:
        features = store.machine_matrix()
        complete = np.flatnonzero(~np.isnan(features).any(axis=1))
        if len(complete) < 2:
            raise ConfigurationError(
                "fold needs at least two completed machines "
                f"({len(complete)} landed)"
            )
        names = [store.machines[index] for index in complete]
        labels = tuple(
            f"{workload}:{metric}"
            for workload in store.workloads
            for metric in store.metrics
        )
        pca = fit_pca(features[complete], feature_labels=labels)
        scores = pca.retained_scores()
        clustering = kmeans(
            scores, min(config.clusters, len(names)), seed=config.seed
        )
        document = {
            "machines_analyzed": len(names),
            "machines_total": len(store.machines),
            "features": len(labels),
            "kaiser_components": pca.kaiser_components,
            "cumulative_variance": pca.cumulative_variance(),
            "clusters": clustering.clusters(names),
            "representatives": clustering.representatives(scores, names),
            "inertia": clustering.inertia,
        }
        artifact.atomic_write(
            self.directory / _ANALYSIS_FILE,
            json.dumps(document, indent=2, sort_keys=True) + "\n",
        )
        obs_metrics.incr("campaign.folds")
        return document

    def campaign_digest(self) -> Optional[str]:
        """Digest over every shard's per-pair digests, in row order.

        ``None`` until every shard has checkpointed.  Because rows are
        canonical machine-major, this equals a digest over the naive
        per-pair loop's reports in the same order — the benchmark's
        bit-identity gate.
        """
        config = self.config or self.load_config()
        digest = hashlib.sha256()
        for index in range(config.n_shards):
            manifest = self._shard_manifest(index)
            if manifest is None:
                return None
            for item in manifest["pair_digests"]:
                digest.update(item.encode())
        return digest.hexdigest()

    def status(self) -> dict:
        """Checkpoint inventory: what landed, what remains."""
        config = self.config or self.load_config()
        done = []
        pairs_done = 0
        for index in range(config.n_shards):
            manifest = self._shard_manifest(index)
            if manifest is not None:
                done.append(index)
                pairs_done += int(manifest["rows"])
        sealed = False
        landed = 0
        if (self.store_dir / "schema.json").is_file():
            store = CampaignStore.open(self.store_dir)
            landed = store.landed_rows()
            sealed = bool(store.checksums)
        total_rows = config.machines * len(config.workloads)
        return {
            "directory": str(self.directory),
            "machines": config.machines,
            "workloads": list(config.workloads),
            "shards": {
                "total": config.n_shards,
                "done": len(done),
                "pending": [
                    index
                    for index in range(config.n_shards)
                    if index not in done
                ],
            },
            "rows": {"total": total_rows, "checkpointed": pairs_done,
                     "landed": landed},
            "sealed": sealed,
            "digest": self.campaign_digest(),
            "analyzed": (self.directory / _ANALYSIS_FILE).is_file(),
        }
