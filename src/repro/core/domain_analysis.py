"""Application-domain distinctness analysis (Section IV-F, Table VIII).

Within each application domain, the paper marks the benchmarks whose
behaviour is distinct enough that all of them are needed to cover the
domain's performance spectrum; when rate and speed twins behave alike,
only the (shorter-running) rate version is marked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.rate_speed import compare_rate_speed
from repro.core.similarity import analyze_similarity
from repro.perf.profiler import Profiler
from repro.workloads.domains import all_domains
from repro.workloads.spec import Suite, workloads_in_suite

__all__ = ["DomainReport", "analyze_domains"]


@dataclass(frozen=True)
class DomainReport:
    """Distinctness marking for every Table VIII domain.

    ``distinct`` maps each domain to the benchmarks that must be run to
    cover it: one per behaviour cluster within the domain, with the rate
    twin preferred whenever its speed twin behaves the same.
    """

    distinct: Dict[str, Tuple[str, ...]]
    twin_distance: Dict[str, float]
    twin_threshold: float

    @property
    def all_distinct(self) -> Tuple[str, ...]:
        return tuple(
            name for members in self.distinct.values() for name in members
        )


def analyze_domains(
    machines: Optional[List[str]] = None,
    profiler: Optional[Profiler] = None,
    twin_factor: float = 1.5,
) -> DomainReport:
    """Mark the distinct benchmarks per application domain.

    Method (following Section IV-F):

    1. Compute every rate/speed twin's distance; twins below
       ``twin_factor`` x the median twin distance are "similar", so the
       speed version is dropped in favour of its rate twin.
    2. Within each domain, benchmarks that are mutually similar (their
       PC distance is below the median pairwise distance of the whole
       CPU2017 space) collapse onto one representative; the rest are
       marked distinct.
    """
    comparison = compare_rate_speed(machines=machines, profiler=profiler)
    distances = {p.rate: p.distance for p in comparison.pairs}
    import numpy as np

    median_twin = float(np.median(list(distances.values())))
    threshold = twin_factor * median_twin
    similar_speed_twins = {
        p.speed for p in comparison.pairs if p.distance <= threshold
    }

    names = [
        s.name
        for s in workloads_in_suite(
            Suite.SPEC2017_RATE_INT,
            Suite.SPEC2017_SPEED_INT,
            Suite.SPEC2017_RATE_FP,
            Suite.SPEC2017_SPEED_FP,
        )
    ]
    overall = analyze_similarity(names, machines=machines, profiler=profiler)
    global_median = float(np.median(overall.distances[overall.distances > 0]))

    marked: Dict[str, Tuple[str, ...]] = {}
    for domain, members in all_domains().items():
        # Drop speed twins that mirror their rate versions.
        kept = [m for m in members if m not in similar_speed_twins]
        distinct: List[str] = []
        for candidate in kept:
            if any(
                overall.distance_between(candidate, chosen) < 0.5 * global_median
                for chosen in distinct
            ):
                continue
            distinct.append(candidate)
        marked[domain] = tuple(distinct)
    return DomainReport(
        distinct=marked,
        twin_distance={p.rate: p.distance for p in comparison.pairs},
        twin_threshold=threshold,
    )
