"""TLB configuration and page-walk cost model.

The paper's feature set (Table III) includes L1 I/D TLB misses per
million instructions, last-level TLB MPMI and page walks per million
instructions — and notes that depending on the machine the second-level
TLB may be unified or split.  A :class:`~repro.uarch.machine.MachineConfig`
holds one :class:`TlbConfig` per TLB and says which shape its second
level has; both engines model both shapes from those configs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["TlbConfig", "PageWalker"]


@dataclass(frozen=True)
class TlbConfig:
    """Geometry of one TLB.

    Fully-associative TLBs are expressed by ``associativity == entries``.
    """

    entries: int
    associativity: int = 4
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigurationError(f"entries must be > 0, got {self.entries}")
        if self.associativity <= 0 or self.entries % self.associativity:
            raise ConfigurationError(
                f"associativity {self.associativity} must divide entries {self.entries}"
            )
        if self.page_bytes <= 0 or self.page_bytes & (self.page_bytes - 1):
            raise ConfigurationError(
                f"page_bytes must be a positive power of two, got {self.page_bytes}"
            )
        sets = self.entries // self.associativity
        if sets & (sets - 1):
            raise ConfigurationError(f"number of TLB sets must be a power of two, got {sets}")

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class PageWalker:
    """Cost model for hardware page walks.

    ``walk_cycles`` is the average full-walk latency; walks that hit the
    page-walk caches are cheaper, captured by ``cached_fraction``.
    Frozen (like every other config dataclass) so a
    :class:`~repro.uarch.machine.MachineConfig` is hashable and cache
    identities can be memoized per config object.
    """

    walk_cycles: float = 30.0
    cached_fraction: float = 0.5
    cached_cycles: float = 8.0

    def average_cycles(self) -> float:
        """Expected cycles per page walk."""
        return (
            self.cached_fraction * self.cached_cycles
            + (1.0 - self.cached_fraction) * self.walk_cycles
        )
