"""Feature-matrix construction for the statistical analyses.

Section III of the paper treats each (performance counter, machine) pair
as one variable — 20 metrics x 7 machines = 140 features per benchmark
— then standardizes the matrix before PCA.  :class:`FeatureMatrix`
carries the matrix together with its row (workload) and column
(metric@machine) labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import AnalysisError
from repro.obs.trace import span
from repro.perf.counters import SIMILARITY_METRICS, Metric
from repro.perf.executor import ProfilingExecutor
from repro.perf.profiler import Profiler
from repro.uarch.machine import MachineConfig, PAPER_MACHINE_NAMES, get_machine
from repro.workloads.spec import WorkloadSpec, get_workload

__all__ = ["FeatureMatrix", "build_feature_matrix"]


@dataclass(frozen=True)
class FeatureMatrix:
    """A workloads x features matrix with labels.

    Attributes
    ----------
    values:
        Raw (unstandardized) feature values, shape ``(n_workloads,
        n_features)``.
    workloads:
        Row labels (workload names).
    features:
        Column labels, ``"<metric>@<machine>"``.
    """

    values: np.ndarray
    workloads: Tuple[str, ...]
    features: Tuple[str, ...]

    def __post_init__(self) -> None:
        rows, cols = self.values.shape
        if rows != len(self.workloads) or cols != len(self.features):
            raise AnalysisError(
                f"matrix shape {self.values.shape} does not match labels "
                f"({len(self.workloads)} workloads, {len(self.features)} features)"
            )

    @property
    def n_workloads(self) -> int:
        return len(self.workloads)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def digest(self) -> str:
        """SHA-256 over labels and raw value bytes.

        Two matrices have equal digests iff workloads, features and
        every float bit pattern match — the byte-identity check used by
        the parallel-determinism tests and ``repro dataset``.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update("\x00".join(self.workloads).encode())
        digest.update(b"\x01")
        digest.update("\x00".join(self.features).encode())
        digest.update(b"\x01")
        digest.update(np.ascontiguousarray(self.values, dtype=float).tobytes())
        return digest.hexdigest()

    def standardized(self) -> np.ndarray:
        """Z-scored copy; zero-variance columns become all-zero."""
        mean = self.values.mean(axis=0)
        std = self.values.std(axis=0)
        safe = np.where(std > 0.0, std, 1.0)
        return (self.values - mean) / safe

    def row(self, workload: str) -> np.ndarray:
        """The raw feature vector of one workload."""
        try:
            index = self.workloads.index(workload)
        except ValueError:
            raise AnalysisError(f"workload {workload!r} not in matrix") from None
        return self.values[index]

    def subset(self, workloads: Sequence[str]) -> "FeatureMatrix":
        """A new matrix restricted to the given workloads, in order."""
        indices = []
        for name in workloads:
            try:
                indices.append(self.workloads.index(name))
            except ValueError:
                raise AnalysisError(f"workload {name!r} not in matrix") from None
        return FeatureMatrix(
            values=self.values[indices],
            workloads=tuple(workloads),
            features=self.features,
        )

    def select_metrics(self, metrics: Sequence[Metric]) -> "FeatureMatrix":
        """A new matrix keeping only columns for the given metrics."""
        wanted = {metric.value for metric in metrics}
        keep = [
            j
            for j, feature in enumerate(self.features)
            if feature.split("@", 1)[0] in wanted
        ]
        if not keep:
            raise AnalysisError("no matching feature columns")
        return FeatureMatrix(
            values=self.values[:, keep],
            workloads=self.workloads,
            features=tuple(self.features[j] for j in keep),
        )


def build_feature_matrix(
    workloads: Iterable[Union[str, WorkloadSpec]],
    machines: Optional[Iterable[Union[str, MachineConfig]]] = None,
    metrics: Sequence[Metric] = SIMILARITY_METRICS,
    profiler: Optional[Profiler] = None,
    jobs: int = 1,
) -> FeatureMatrix:
    """Profile workloads on machines and assemble the feature matrix.

    Defaults to the paper's setup: the Table III similarity metrics on
    the seven Table IV machines.

    The profiling sweep runs through :mod:`repro.perf.executor`, which
    replays each workload's machines as one batch, over ``jobs``
    worker processes when ``jobs > 1``.  The matrix is assembled from
    the per-pair reports in input order and each report is
    deterministic, so the result is bit-identical for any worker
    count, and to profiling each pair on its own.
    """
    specs = [
        get_workload(w) if isinstance(w, str) else w for w in workloads
    ]
    if not specs:
        raise AnalysisError("need at least one workload")
    machine_configs = [
        get_machine(m) if isinstance(m, str) else m
        for m in (machines if machines is not None else PAPER_MACHINE_NAMES)
    ]
    if not machine_configs:
        raise AnalysisError("need at least one machine")
    profiler = profiler or Profiler()

    features = tuple(
        f"{metric.value}@{machine.name}"
        for machine in machine_configs
        for metric in metrics
    )
    rows = np.empty((len(specs), len(features)), dtype=float)
    with span(
        "dataset.build_matrix",
        workloads=len(specs),
        machines=len(machine_configs),
        features=len(features),
        jobs=jobs,
        engine=profiler.engine_config.engine,
    ):
        reports = ProfilingExecutor(profiler, jobs=jobs).run(
            [(spec, machine) for spec in specs for machine in machine_configs],
            progress_label="dataset.sweep",
        )
        n = len(machine_configs)
        for i in range(len(specs)):
            rows[i] = [
                report.metrics.get(metric, 0.0)
                for report in reports[i * n:(i + 1) * n]
                for metric in metrics
            ]
    return FeatureMatrix(
        values=rows,
        workloads=tuple(spec.name for spec in specs),
        features=features,
    )
