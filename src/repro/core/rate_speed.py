"""Rate vs speed comparison (Section IV-D).

Most benchmarks appear in both a rate and a speed version differing in
workload size, flags and runtime.  The paper asks whether those
differences translate into microarchitectural differences, and finds:
most pairs are very similar; among INT only omnetpp, xalancbmk and x264
show elevated distances; among FP, imagick (by far), bwaves and
fotonik3d differ substantially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.similarity import analyze_similarity
from repro.errors import AnalysisError
from repro.perf.profiler import Profiler
from repro.stats.cluster import Linkage
from repro.workloads.spec import Suite, workloads_in_suite
from repro.workloads.spec2017 import RATE_SPEED_PAIRS

__all__ = ["PairDistance", "RateSpeedComparison", "compare_rate_speed"]

#: Pairs the paper singles out as behaving differently.
PAPER_DIFFERENT_INT = ("omnetpp", "xalancbmk", "x264")
PAPER_DIFFERENT_FP = ("imagick", "bwaves", "fotonik3d")


@dataclass(frozen=True)
class PairDistance:
    """Distance between one rate/speed twin pair."""

    rate: str
    speed: str
    distance: float
    cophenetic: float

    @property
    def family(self) -> str:
        """Family name without id or suffix (e.g. ``"mcf"``)."""
        return self.rate.split(".", 1)[1].rsplit("_", 1)[0]


@dataclass(frozen=True)
class RateSpeedComparison:
    """All twin-pair distances, split by INT/FP."""

    int_pairs: Tuple[PairDistance, ...]
    fp_pairs: Tuple[PairDistance, ...]

    @property
    def pairs(self) -> Tuple[PairDistance, ...]:
        return self.int_pairs + self.fp_pairs

    def different_pairs(self, category: str = "all") -> List[PairDistance]:
        """Pairs whose distance is elevated (above 1.5x the category median)."""
        group = {
            "int": self.int_pairs,
            "fp": self.fp_pairs,
            "all": self.pairs,
        }.get(category)
        if group is None:
            raise AnalysisError(f"category must be int/fp/all, got {category!r}")
        if not group:
            return []
        median = float(np.median([p.distance for p in group]))
        return sorted(
            (p for p in group if p.distance > 1.5 * median),
            key=lambda p: -p.distance,
        )

    def ranked(self, category: str = "all") -> List[PairDistance]:
        """Pairs of one category sorted by descending distance."""
        group = {
            "int": self.int_pairs,
            "fp": self.fp_pairs,
            "all": self.pairs,
        }[category]
        return sorted(group, key=lambda p: -p.distance)


def compare_rate_speed(
    machines: Optional[List[str]] = None,
    linkage: Linkage = Linkage.AVERAGE,
    profiler: Optional[Profiler] = None,
) -> RateSpeedComparison:
    """Measure every rate/speed twin's distance in the joint PC space.

    INT and FP twins are analysed within their own combined (rate +
    speed) workload spaces, mirroring the paper's use of the Figure 7/8
    dendrograms.
    """
    int_names = [
        s.name
        for s in workloads_in_suite(
            Suite.SPEC2017_RATE_INT, Suite.SPEC2017_SPEED_INT
        )
    ]
    fp_names = [
        s.name
        for s in workloads_in_suite(
            Suite.SPEC2017_RATE_FP, Suite.SPEC2017_SPEED_FP
        )
    ]
    int_result = analyze_similarity(
        int_names, machines=machines, linkage=linkage, profiler=profiler
    )
    fp_result = analyze_similarity(
        fp_names, machines=machines, linkage=linkage, profiler=profiler
    )

    int_pairs: List[PairDistance] = []
    fp_pairs: List[PairDistance] = []
    for rate, speed in RATE_SPEED_PAIRS:
        if rate in int_names:
            result, bucket = int_result, int_pairs
        elif rate in fp_names:
            result, bucket = fp_result, fp_pairs
        else:
            raise AnalysisError(f"pair {rate}/{speed} not in either category")
        bucket.append(
            PairDistance(
                rate=rate,
                speed=speed,
                distance=result.distance_between(rate, speed),
                cophenetic=result.tree.cophenetic_distance(rate, speed),
            )
        )
    return RateSpeedComparison(
        int_pairs=tuple(int_pairs), fp_pairs=tuple(fp_pairs)
    )
