"""Campaign runner: sharded, resumable design-space sweeps.

A *campaign* profiles a generated machine population
(:mod:`repro.campaign.generator`) against a workload list and lands the
counter matrix in the columnar store (:mod:`repro.campaign.store`).
A run is three steps in a fixed order: ``generate`` the machines and
the store, profile every pending ``shard-NNNN`` machine slice, then
``fold`` the store.

One pool per run
----------------

Every shard is planned up front — its shard key, the skip check and
its dispatch order — and the pending ones stream through one
:meth:`~repro.perf.executor.ProfilingExecutor.run_sweeps`, one sweep
per shard: at ``jobs > 1`` one set of worker lanes serves the whole
run, and each (workload, trace geometry) batch is pinned to one lane
across every shard.  Shards land in order, and shard ``k`` lands (rows
reassembled, pair digests, store write, checkpoint) while the workers
profile the later shards, so the parent's serial work overlaps the
profiling instead of following it.  Once landed, a shard's reports are
dropped (the store holds its rows), so the parent's memory does not
grow with the machine count.  A failed chunk raises only after every
earlier shard has landed, so a failure leaves exactly the shards before
it checkpointed.

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
uninterrupted run.  A shard killed before its checkpoint is recomputed
whole: nothing finer than a shard is kept.  Completed shards are also
appended to the run-history ledger (:mod:`repro.obs.history`) when
ledger recording is on, so campaign progress is longitudinal like
every other run.

Scheduling for fused replay
---------------------------

Within a shard, pairs are laid out workload-major with machines sorted
by :func:`~repro.campaign.generator.structure_key`.  The executor makes
each (workload, trace geometry) batch of the shard one chunk
(:func:`~repro.perf.profiler.engine_batches`), so each fused batch
synthesizes its trace once and shares its set-partition and per-level
replay passes across the shard's machines; where a batch is larger
than its fair share of the workers and splits, the structure sort
keeps like structures in one piece.  The dispatch order is a pure
permutation: results are reassembled into canonical machine-major rows
before they touch the store, so scheduling can never change a byte of
output.

Every shard is profiled through one :class:`~repro.perf.profiler.Profiler`
built from the config, with no disk cache: the store and the shard
manifests are the campaign's one durable copy of its results.  Every
shard replays the same traces on new machines, so a trace is
synthesized once per campaign and each shard's fused batch replays only
the cache levels, TLBs and predictor tables no earlier shard's did
(:class:`~repro.uarch.fused.TraceReplays`).  At ``jobs=1`` the
profiler's engine table holds them; at ``jobs > 1`` the worker lane a
batch is pinned to holds them from its first shard to its last, so the
trace and replay counters are the same at every worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

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


class _ShardPlan(NamedTuple):
    """One shard to profile: its rows, its key and its dispatch order."""

    index: int
    key: str
    #: The shard's machines in canonical (row) order.
    machines: List[MachineConfig]
    #: The first store row the shard writes.
    row_start: int
    #: Structure-sorted machine positions; ``pairs`` follow it.
    order: List[int]
    #: Workload-major (spec, machine) pairs, the executor sweep.
    pairs: List[Tuple[WorkloadSpec, MachineConfig]]


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
        Checked against the config's engine parameters, otherwise
        unused; see the comment in ``__init__``.
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
        # Kept only for benchmarks/e2e/op.py:80-88 (_campaign), which
        # passes a profiler with a disk cache; shards are profiled
        # without one (see _make_profiler).
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
        """The run's profiler: the config's engine, no disk cache."""
        if (
            self._profiler is not None
            and self._profiler.engine_config != config.engine_config
        ):
            raise ConfigurationError(
                "profiler engine parameters disagree with the campaign "
                "config (engine/instructions/seed must match)"
            )
        return Profiler(**dataclasses.asdict(config.engine_config))

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
            machines, store = self._run_generate(config, specs)
            completed = self._run_shards(
                config, profiler, specs, machines, store,
                range(config.n_shards),
            )
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
        resumed campaign recomputes a shard iff any of these changed.
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

    def _run_shards(
        self,
        config: CampaignConfig,
        profiler: Profiler,
        specs: Sequence[WorkloadSpec],
        machines: Sequence[MachineConfig],
        store: CampaignStore,
        indices: Sequence[int],
    ) -> int:
        """Profile the given shards through one pool; returns how many ran.

        Every shard is planned first (:meth:`_plan_shard`); the pending
        ones then stream through one
        :meth:`~repro.perf.executor.ProfilingExecutor.run_sweeps`, one
        sweep per shard, and shard ``k`` lands (:meth:`_land_shard`)
        while the workers profile the later shards.
        """
        ticker = obs_progress("campaign.shards", total=len(indices))
        try:
            plans = []
            for index in indices:
                plan = self._plan_shard(config, specs, machines, index)
                if plan is None:
                    ticker.advance()
                else:
                    plans.append(plan)
            # A shard's elapsed_s is the wall time from the previous
            # shard's results (or the stream's start) to its own.
            ready = time.perf_counter()

            def land(position: int, reports: List[CounterReport]) -> None:
                nonlocal ready
                now = time.perf_counter()
                self._land_shard(config, store, plans[position], reports,
                                 now - ready)
                # The store holds the shard now: nothing looks these
                # pairs up again.
                profiler.forget(plans[position].pairs)
                ready = now
                ticker.advance()

            ProfilingExecutor(profiler, jobs=self.jobs).run_sweeps(
                [plan.pairs for plan in plans], land,
                progress_label="campaign.pairs",
            )
        finally:
            # A failed campaign closes its ticker too, so it never
            # stays live.
            ticker.close()
        return len(plans)

    def _plan_shard(
        self,
        config: CampaignConfig,
        specs: Sequence[WorkloadSpec],
        machines: Sequence[MachineConfig],
        index: int,
    ) -> Optional[_ShardPlan]:
        """Shard ``index``'s plan, or ``None`` when it is checkpointed.

        The shard is skipped iff its manifest is intact *and* its shard
        key still matches — any config, code or population drift forces
        a recompute of the whole shard.
        """
        start, stop = self._shard_slice(config, index)
        slice_machines = list(machines[start:stop])
        row_start = start * len(specs)
        key = self._shard_key(config, specs, slice_machines, row_start)
        manifest = self._shard_manifest(index)
        if manifest is not None and manifest.get("key") == key:
            obs_metrics.incr("campaign.shards.skipped")
            return None
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
        return _ShardPlan(index, key, slice_machines, row_start, order, pairs)

    def _land_shard(
        self,
        config: CampaignConfig,
        store: CampaignStore,
        plan: _ShardPlan,
        reports: List[CounterReport],
        elapsed: float,
    ) -> None:
        """Write one profiled shard's rows, then checkpoint it.

        ``reports`` follow ``plan.pairs``; they are reassembled into
        canonical machine-major rows before they touch the store.
        """
        n_machines = len(plan.machines)
        n_workloads = len(config.workloads)
        with span("campaign.shard", shard=plan.index, machines=n_machines):
            values = np.empty(
                (n_machines * n_workloads, len(SIMILARITY_METRICS))
            )
            digests: List[str] = [""] * (n_machines * n_workloads)
            for w_index in range(n_workloads):
                for position, local in enumerate(plan.order):
                    report = reports[w_index * n_machines + position]
                    row = local * n_workloads + w_index
                    values[row, :] = [
                        report.metrics[metric]
                        for metric in SIMILARITY_METRICS
                    ]
                    digests[row] = pair_digest(report)
            store.write_rows(plan.row_start, values)
            self._checkpoint_shard(
                config, plan.index, plan.key, plan.machines, digests, elapsed
            )
            obs_metrics.incr("campaign.shards.completed")
            obs_metrics.incr("campaign.pairs.profiled", len(reports))

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
