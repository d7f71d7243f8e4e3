"""Cache level configuration: geometry, latency and replacement policy.

Both profiling engines read a machine's cache levels from here.  The
trace engine replays every level of a machine batch through
:mod:`repro.uarch.fused`; the analytic engine integrates each level's
hit probability in closed form (:mod:`repro.perf.analytic`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ReplacementPolicy", "CacheConfig"]


class ReplacementPolicy(enum.Enum):
    """Victim selection policy within a set."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level.

    Parameters
    ----------
    size_bytes:
        Total capacity.
    line_bytes:
        Cache line size; must be a power of two.
    associativity:
        Number of ways; ``size_bytes / (line_bytes * associativity)``
        must be a whole number of sets.  It need not be a power of
        two: large LLCs often have non-power-of-two slices.
    hit_latency:
        Access latency in cycles, exposed on the level above's miss path.
    policy:
        Replacement policy.
    """

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    hit_latency: int = 4
    policy: ReplacementPolicy = ReplacementPolicy.LRU

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"size_bytes must be > 0, got {self.size_bytes}")
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ConfigurationError(
                f"line_bytes must be a positive power of two, got {self.line_bytes}"
            )
        if self.associativity <= 0:
            raise ConfigurationError(
                f"associativity must be > 0, got {self.associativity}"
            )
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ConfigurationError(
                "size_bytes must be a multiple of line_bytes * associativity"
            )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def describe(self) -> str:
        """Human-readable geometry, e.g. ``"32KB/8-way/64B"``."""
        if self.size_bytes >= 1 << 20:
            size = f"{self.size_bytes >> 20}MB"
        else:
            size = f"{self.size_bytes >> 10}KB"
        return f"{size}/{self.associativity}-way/{self.line_bytes}B"
