"""TLB simulation and page-walk cost model.

The paper's feature set (Table III) includes L1 I/D TLB misses per
million instructions, last-level TLB MPMI and page walks per million
instructions — and notes that depending on the machine the second-level
TLB may be unified or split.  :class:`TlbHierarchy` models both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["TlbConfig", "Tlb", "TlbHierarchy", "PageWalker"]


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


class Tlb:
    """A set-associative LRU TLB."""

    def __init__(self, config: TlbConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.accesses = 0
        self.misses = 0
        sets = config.num_sets
        self._tags = np.full((sets, config.associativity), -1, dtype=np.int64)
        self._stamp = np.zeros((sets, config.associativity), dtype=np.int64)
        self._clock = 0
        self._page_shift = config.page_bytes.bit_length() - 1
        self._set_mask = sets - 1

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def access(self, address: int) -> bool:
        """Translate a byte address; returns True on TLB hit."""
        self._clock += 1
        self.accesses += 1
        page = address >> self._page_shift
        set_index = page & self._set_mask
        ways = self._tags[set_index]
        matches = np.nonzero(ways == page)[0]
        if matches.size:
            self._stamp[set_index, int(matches[0])] = self._clock
            return True
        self.misses += 1
        empty = np.nonzero(ways == -1)[0]
        way = int(empty[0]) if empty.size else int(np.argmin(self._stamp[set_index]))
        self._tags[set_index, way] = page
        self._stamp[set_index, way] = self._clock
        return False

    def reset(self) -> None:
        """Invalidate all entries and zero the statistics."""
        self._tags.fill(-1)
        self._stamp.fill(0)
        self.accesses = self.misses = 0
        self._clock = 0


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


class TlbHierarchy:
    """L1 I/D TLBs backed by an optional second-level TLB.

    The second level is unified (shared by instruction and data
    translations) when ``unified_l2`` is True — matching the paper's
    footnote that the last-level TLB is unified or split depending on
    the machine.
    """

    def __init__(
        self,
        itlb: TlbConfig,
        dtlb: TlbConfig,
        l2: Optional[TlbConfig] = None,
        unified_l2: bool = True,
        walker: Optional[PageWalker] = None,
    ) -> None:
        self.itlb = Tlb(itlb, name="L1-ITLB")
        self.dtlb = Tlb(dtlb, name="L1-DTLB")
        self.unified_l2 = unified_l2
        if l2 is None:
            self.l2_itlb: Optional[Tlb] = None
            self.l2_dtlb: Optional[Tlb] = None
        elif unified_l2:
            shared = Tlb(l2, name="L2-TLB")
            self.l2_itlb = shared
            self.l2_dtlb = shared
        else:
            self.l2_itlb = Tlb(l2, name="L2-ITLB")
            self.l2_dtlb = Tlb(l2, name="L2-DTLB")
        self.walker = walker or PageWalker()
        self.page_walks = 0

    def translate_data(self, address: int) -> bool:
        """Translate a data address; returns True on an L1 DTLB hit."""
        if self.dtlb.access(address):
            return True
        if self.l2_dtlb is not None and self.l2_dtlb.access(address):
            return False
        self.page_walks += 1
        return False

    def translate_inst(self, address: int) -> bool:
        """Translate an instruction address; returns True on an L1 ITLB hit."""
        if self.itlb.access(address):
            return True
        if self.l2_itlb is not None and self.l2_itlb.access(address):
            return False
        self.page_walks += 1
        return False

    def last_level_misses(self) -> int:
        """Misses of the last TLB level (page walks when no L2 TLB)."""
        if self.l2_itlb is None and self.l2_dtlb is None:
            return self.itlb.misses + self.dtlb.misses
        if self.unified_l2:
            assert self.l2_itlb is not None
            return self.l2_itlb.misses
        assert self.l2_itlb is not None and self.l2_dtlb is not None
        return self.l2_itlb.misses + self.l2_dtlb.misses

    def reset(self) -> None:
        """Reset every level and the walk counter."""
        self.itlb.reset()
        self.dtlb.reset()
        seen = set()
        for tlb in (self.l2_itlb, self.l2_dtlb):
            if tlb is not None and id(tlb) not in seen:
                tlb.reset()
                seen.add(id(tlb))
        self.page_walks = 0
