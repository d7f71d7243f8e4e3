"""Scalar per-access simulators: the reference oracle of the trace replay.

The trace engine replays a trace through every cache, TLB and branch
predictor of a machine batch at once (:mod:`repro.uarch.fused`).  The
classes here step one access or branch per Python call instead, and are
the one implementation that replay is tested against:
:func:`tests.parity.reference_counts` drives them over a trace.

* :class:`Cache` (LRU, FIFO or RANDOM; write-allocate) and
  :func:`build_hierarchy`, which chains levels;
* :class:`Tlb` and :class:`TlbHierarchy` (unified or split L2 TLB);
* the static, bimodal, gshare and tournament predictors, and
  :func:`build_predictor`, which builds the one a
  :class:`~repro.uarch.branch.PredictorSpec` describes;
* :class:`NextLinePrefetcher` and :class:`StridePrefetcher`, which drive
  a :class:`Cache` for the prefetch ablation
  (``benchmarks/bench_ablation_prefetch.py``).

The config types they take stay in :mod:`repro.uarch`.  This module
needs numpy only, not scipy, so the ablation runs without the tests'
scipy oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.uarch.branch import (
    GSHARE_HISTORY_BITS,
    PredictorSpec,
    predictor_table_entries,
)
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.tlb import PageWalker, TlbConfig


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Access counters of one simulated cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        """Zero all counters."""
        self.accesses = self.hits = self.misses = 0
        self.evictions = self.writebacks = 0


class Cache:
    """One level of a set-associative cache.

    Optionally chained to a ``next_level`` cache; on a miss the line is
    fetched from (and allocated in) the next level, modelling an
    inclusive-ish hierarchy sufficient for miss-counting purposes.
    """

    def __init__(
        self,
        config: CacheConfig,
        name: str = "cache",
        next_level: Optional["Cache"] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.config = config
        self.name = name
        self.next_level = next_level
        self.stats = CacheStats()
        self._rng = rng or np.random.default_rng(0)
        sets, ways = config.num_sets, config.associativity
        self._tags = np.full((sets, ways), -1, dtype=np.int64)
        self._dirty = np.zeros((sets, ways), dtype=bool)
        # Per-way recency/arrival stamp used by LRU and FIFO.
        self._stamp = np.zeros((sets, ways), dtype=np.int64)
        self._clock = 0
        self._set_shift = config.line_bytes.bit_length() - 1
        self._num_sets = sets
        # Fast mask indexing when the set count is a power of two,
        # modulo otherwise (large LLCs often have non-power-of-two slices).
        self._set_mask = sets - 1 if sets & (sets - 1) == 0 else None

    # -- addressing ------------------------------------------------------------

    def _locate(self, address: int) -> tuple:
        line = address >> self._set_shift
        if self._set_mask is not None:
            return line & self._set_mask, line
        return line % self._num_sets, line

    # -- access ----------------------------------------------------------------

    def access(self, address: int, is_write: bool = False) -> bool:
        """Access one byte address; returns True on hit.

        Misses recurse into the next level and allocate the line here
        (write-allocate for both loads and stores).
        """
        self._clock += 1
        self.stats.accesses += 1
        set_index, tag = self._locate(address)
        ways = self._tags[set_index]
        matches = np.nonzero(ways == tag)[0]
        if matches.size:
            way = int(matches[0])
            self.stats.hits += 1
            if self.config.policy is ReplacementPolicy.LRU:
                self._stamp[set_index, way] = self._clock
            if is_write:
                self._dirty[set_index, way] = True
            return True

        self.stats.misses += 1
        if self.next_level is not None:
            self.next_level.access(address, is_write=False)
        self._fill(set_index, tag, is_write)
        return False

    def _fill(self, set_index: int, tag: int, is_write: bool) -> None:
        ways = self._tags[set_index]
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = self._choose_victim(set_index)
            self.stats.evictions += 1
            if self._dirty[set_index, way]:
                self.stats.writebacks += 1
                if self.next_level is not None:
                    # Write the victim back to the next level.
                    self.next_level.stats.accesses += 1
                    self.next_level.stats.hits += 1
        self._tags[set_index, way] = tag
        self._dirty[set_index, way] = is_write
        self._stamp[set_index, way] = self._clock

    def _choose_victim(self, set_index: int) -> int:
        policy = self.config.policy
        if policy is ReplacementPolicy.RANDOM:
            return int(self._rng.integers(0, self.config.associativity))
        # LRU evicts the oldest recency stamp; FIFO the oldest arrival
        # stamp (arrival stamps are never refreshed on hits).
        return int(np.argmin(self._stamp[set_index]))

    # -- queries ---------------------------------------------------------------

    def contains(self, address: int) -> bool:
        """Whether the line holding ``address`` is currently resident."""
        set_index, tag = self._locate(address)
        return bool((self._tags[set_index] == tag).any())

    def flush(self) -> None:
        """Invalidate all lines (statistics are kept)."""
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._stamp.fill(0)

    def reset(self) -> None:
        """Invalidate all lines and clear statistics."""
        self.flush()
        self.stats.reset()
        self._clock = 0


def build_hierarchy(
    configs: List[CacheConfig], names: Optional[List[str]] = None
) -> List[Cache]:
    """Build a chained cache hierarchy from innermost to outermost.

    Returns the caches in the given order, each linked to the next.
    """
    if not configs:
        raise ConfigurationError("need at least one cache level")
    names = names or [f"L{i + 1}" for i in range(len(configs))]
    if len(names) != len(configs):
        raise ConfigurationError("names and configs must have equal length")
    caches: List[Cache] = []
    next_level: Optional[Cache] = None
    for config, name in zip(reversed(configs), reversed(names)):
        next_level = Cache(config, name=name, next_level=next_level)
        caches.append(next_level)
    caches.reverse()
    return caches


# ---------------------------------------------------------------------------
# TLBs
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# branch predictors
# ---------------------------------------------------------------------------


class BranchPredictor:
    """Interface shared by the exact predictor simulators."""

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        raise NotImplementedError

    def update(self, pc: int, taken: bool) -> None:
        """Train on the resolved outcome of the branch at ``pc``."""
        raise NotImplementedError

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Convenience: one prediction step; returns True when correct."""
        prediction = self.predict(pc)
        self.update(pc, taken)
        return prediction == taken


class StaticPredictor(BranchPredictor):
    """Predicts a fixed direction (default: always taken)."""

    def __init__(self, taken: bool = True) -> None:
        self.taken = taken

    def predict(self, pc: int) -> bool:
        """Always the fixed direction."""
        return self.taken

    def update(self, pc: int, taken: bool) -> None:
        """Static predictors do not learn."""
        return None


class BimodalPredictor(BranchPredictor):
    """Per-PC two-bit saturating counters."""

    def __init__(self, entries: int = 4096) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(
                f"entries must be a positive power of two, got {entries}"
            )
        self._counters = np.full(entries, 2, dtype=np.int8)  # weakly taken
        self._mask = entries - 1

    def _index(self, pc: int) -> int:
        return pc & self._mask

    def predict(self, pc: int) -> bool:
        """Majority direction of the PC's two-bit counter."""
        return bool(self._counters[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Saturating-increment/decrement the PC's counter."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)


class GSharePredictor(BranchPredictor):
    """Global-history XOR-indexed two-bit counters."""

    def __init__(
        self, entries: int = 16384, history_bits: int = GSHARE_HISTORY_BITS
    ) -> None:
        if entries <= 0 or entries & (entries - 1):
            raise ConfigurationError(
                f"entries must be a positive power of two, got {entries}"
            )
        if history_bits <= 0:
            raise ConfigurationError(
                f"history_bits must be > 0, got {history_bits}"
            )
        self._counters = np.full(entries, 2, dtype=np.int8)
        self._mask = entries - 1
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, pc: int) -> int:
        return (pc ^ self._history) & self._mask

    def predict(self, pc: int) -> bool:
        """Majority direction of the history-XOR-indexed counter."""
        return bool(self._counters[self._index(pc)] >= 2)

    def update(self, pc: int, taken: bool) -> None:
        """Train the indexed counter and shift the global history."""
        index = self._index(pc)
        counter = self._counters[index]
        if taken:
            self._counters[index] = min(3, counter + 1)
        else:
            self._counters[index] = max(0, counter - 1)
        self._history = ((self._history << 1) | int(taken)) & self._history_mask


class TournamentPredictor(BranchPredictor):
    """Chooses per-PC between a bimodal and a gshare component."""

    def __init__(
        self, entries: int = 16384, history_bits: int = GSHARE_HISTORY_BITS
    ) -> None:
        self._bimodal = BimodalPredictor(entries)
        self._gshare = GSharePredictor(entries, history_bits)
        self._chooser = np.full(entries, 2, dtype=np.int8)  # weakly gshare
        self._mask = entries - 1

    def predict(self, pc: int) -> bool:
        """Direction of whichever component the chooser trusts."""
        if self._chooser[pc & self._mask] >= 2:
            return self._gshare.predict(pc)
        return self._bimodal.predict(pc)

    def update(self, pc: int, taken: bool) -> None:
        """Train both components and the per-PC chooser."""
        bimodal_correct = self._bimodal.predict(pc) == taken
        gshare_correct = self._gshare.predict(pc) == taken
        index = pc & self._mask
        if gshare_correct and not bimodal_correct:
            self._chooser[index] = min(3, self._chooser[index] + 1)
        elif bimodal_correct and not gshare_correct:
            self._chooser[index] = max(0, self._chooser[index] - 1)
        self._bimodal.update(pc, taken)
        self._gshare.update(pc, taken)


def build_predictor(spec: PredictorSpec) -> BranchPredictor:
    """Instantiate the exact simulator matching an analytic spec."""
    entries = predictor_table_entries(spec)
    if spec.kind == "static":
        return StaticPredictor()
    if spec.kind == "bimodal":
        return BimodalPredictor(entries)
    if spec.kind == "gshare":
        return GSharePredictor(entries)
    return TournamentPredictor(entries)


# ---------------------------------------------------------------------------
# prefetchers
# ---------------------------------------------------------------------------


@dataclass
class PrefetchStats:
    """Accounting for one prefetcher."""

    issued: int = 0
    useful: int = 0        # prefetched lines later demanded
    demand_accesses: int = 0
    demand_misses: int = 0

    @property
    def accuracy(self) -> float:
        """Fraction of prefetches that were later used."""
        return self.useful / self.issued if self.issued else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses removed by prefetching.

        Computed against the demand misses observed *with* prefetching:
        ``useful / (useful + demand_misses)``.
        """
        total = self.useful + self.demand_misses
        return self.useful / total if total else 0.0


class _BasePrefetcher:
    """Shared demand-path plumbing: track prefetched lines for accuracy."""

    def __init__(self, cache: Cache, degree: int = 2) -> None:
        if degree < 1:
            raise ConfigurationError(f"degree must be >= 1, got {degree}")
        self.cache = cache
        self.degree = degree
        self.stats = PrefetchStats()
        self._pending: set = set()
        self._line = cache.config.line_bytes

    def _prefetch_line(self, address: int) -> None:
        line = address // self._line
        if self.cache.contains(address):
            return
        self.stats.issued += 1
        # Fill without counting as a demand access.
        set_index, tag = self.cache._locate(address)
        self.cache._fill(set_index, tag, is_write=False)
        self._pending.add(line)

    def access(self, address: int, is_write: bool = False) -> bool:
        """Demand access; returns True on hit (including prefetch hits)."""
        line = address // self._line
        if line in self._pending:
            self.stats.useful += 1
            self._pending.discard(line)
        hit = self.cache.access(address, is_write=is_write)
        self.stats.demand_accesses += 1
        if not hit:
            self.stats.demand_misses += 1
        self._issue(address, hit)
        return hit

    def _issue(self, address: int, hit: bool) -> None:
        raise NotImplementedError


class NextLinePrefetcher(_BasePrefetcher):
    """Prefetch the next ``degree`` sequential lines on every miss."""

    def _issue(self, address: int, hit: bool) -> None:
        if hit:
            return
        for ahead in range(1, self.degree + 1):
            self._prefetch_line(address + ahead * self._line)


class StridePrefetcher(_BasePrefetcher):
    """Classic PC-less stride detector over recent addresses.

    Tracks the last address and stride per 4 KiB region; two
    consecutive accesses with the same stride arm the prefetcher.
    """

    def __init__(self, cache: Cache, degree: int = 2, regions: int = 64) -> None:
        super().__init__(cache, degree)
        if regions < 1:
            raise ConfigurationError(f"regions must be >= 1, got {regions}")
        self._regions = regions
        self._last: Dict[int, int] = {}
        self._stride: Dict[int, int] = {}
        self._confident: Dict[int, bool] = {}

    def _issue(self, address: int, hit: bool) -> None:
        region = (address >> 12) % self._regions
        last = self._last.get(region)
        if last is not None:
            stride = address - last
            if stride != 0:
                if self._stride.get(region) == stride:
                    self._confident[region] = True
                else:
                    self._confident[region] = False
                self._stride[region] = stride
                if self._confident.get(region):
                    for ahead in range(1, self.degree + 1):
                        self._prefetch_line(address + ahead * stride)
        self._last[region] = address
