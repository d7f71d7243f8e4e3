"""Batch simulation kernels for the exact trace engine.

The scalar per-access simulators of ``tests/scalar_uarch.py``
(``Cache``, ``Tlb`` and the branch predictors) process one access per
Python method call; they are the reference oracle the test suite checks
the engine against, and live with the tests.  The kernels here consume
whole address/outcome arrays at once and are **bit-identical** to them
on what the trace engine reads: the miss positions of a FIFO or RANDOM
cache level, and the per-access predicted directions of the branch
predictors.  LRU caches and TLBs take the stack-depth replay of
:mod:`repro.uarch.fused` instead.

Why bit-identity holds
----------------------

*Set partitioning.*  Cache sets (and predictor table entries) are
independent: an access only reads and writes the state of its own set.
Grouping the access stream by set index (stable ``np.argsort``) and
replaying each set's short subsequence therefore produces exactly the
outcomes the global interleaved replay would.

*FIFO victim order.*  Within a set, residency lives in one tag-keyed
dict whose insertion order is arrival order (hits never reorder it), so
the victim is the first key: the oldest arrival, exactly the scalar
``argmin(stamp)`` over arrival stamps.

*RANDOM draw order.*  The scalar RANDOM policy draws one victim from
the cache's own :class:`numpy.random.Generator` per eviction, in global
eviction order.  Per-set replays are suspended at each eviction
(generator ``yield``) and resumed by a loop that merges the stalled
replays through a min-heap keyed on stream position — so draws are
consumed from one generator, one per eviction, in exactly the scalar
order.  Empty ways fill lowest index first, as the scalar fill does, so
a drawn way names the same victim in both.

*Shared predictor components.*  A tournament trains its bimodal and
gshare components with their own plain predict/update steps, whatever
the chooser does, so their predictions equal those of standalone
tables of the same size: :class:`BranchTables` replays each once and
hands it to every predictor that has it.

*Table cap.*  Let ``cap = 1 << max(top.bit_length(), 12)`` for the
largest branch site ``top`` of a stream whose sites are all >= 0.
Every index a predictor forms is below ``cap``: bimodal and chooser
tables use ``pc & mask``, gshare tables ``(pc ^ history) & mask`` with
a 12-bit history.  A table of at least ``cap`` entries therefore never
aliases, touches only its first ``cap`` counters, and predicts exactly
like a ``cap``-entry table.  One cap serves every kind, so a bimodal
table and a tournament's bimodal component share one replay.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.uarch.branch import GSHARE_HISTORY_BITS
from repro.uarch.cache import CacheConfig, ReplacementPolicy

__all__ = [
    "resolve_trace_kernel",
    "BranchTables",
]


# Kept only for benchmarks/e2e/op.py (_knobs), which records it.
def resolve_trace_kernel(kernel: None = None) -> str:
    """The trace engine's one kernel configuration."""
    return "vector"


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


def _set_index(lines: np.ndarray, num_sets: int) -> np.ndarray:
    """Each line's set: a mask for a power-of-two count, else modulo."""
    if num_sets & (num_sets - 1) == 0:
        return lines & (num_sets - 1)
    return lines % num_sets


def _group_by_set(
    sets: np.ndarray, bound: int
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Stable-sort a set-index stream into per-set groups.

    ``bound`` is the caller's exclusive bound on the indices: the
    table's entries or the level's ``num_sets``.  With a bound of at
    most 65,536 the indices sort as ``uint16``, which numpy's stable
    sort orders by radix sort, about ten times faster than its
    comparison sort of ``int64``.  Returns ``(order, keys, bounds)``: ``order`` permutes
    the stream into set-major order, ``keys`` are the indices in that
    order and group ``g`` occupies ``order[bounds[g]:bounds[g+1]]``.
    """
    if bound <= 1 << 16:
        sets = sets.astype(np.uint16)
    order = np.argsort(sets, kind="stable")
    keys = sets[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    bounds = starts.tolist()
    bounds.append(int(sets.size))
    return order, keys, bounds


def _replay_set_fifo(tags_seq, pos_seq, ways: int, miss_pos: List[int]) -> None:
    # FIFO replay of one cold set: hits touch nothing, so insertion
    # order stays arrival order and the victim is the first key.
    resident: Dict[int, bool] = {}
    for tag, pos in zip(tags_seq, pos_seq):
        if tag not in resident:
            miss_pos.append(pos)
            if len(resident) >= ways:
                del resident[next(iter(resident))]
            resident[tag] = True


def _replay_set_random(tags_seq, pos_seq, ways: int, miss_pos: List[int]):
    # Generator over one cold set: suspends at each eviction, yielding
    # its stream position; _simulate_level's heap loop resumes it with
    # the victim way so the draw comes from the level's RNG in global
    # eviction order.
    row: List[int] = []  # the tag held by each way, lowest way first
    for tag, pos in zip(tags_seq, pos_seq):
        if tag in row:
            continue
        miss_pos.append(pos)
        if len(row) < ways:
            row.append(tag)
        else:
            way = yield pos
            row[way] = tag


def _simulate_level(config: CacheConfig, addrs: np.ndarray) -> np.ndarray:
    """Ascending stream positions that miss one cold FIFO/RANDOM level.

    Bit-identical to calling the scalar oracle's ``Cache(config).access``
    per element on a fresh cache: empty sets, and RANDOM victims drawn from
    ``default_rng(0)``, the cache's own default generator.  Writes only
    set dirty bits and never change a hit/miss outcome, so the stream
    replays write-free.  ``addrs`` must be non-empty.
    """
    lines = addrs >> (config.line_bytes.bit_length() - 1)
    num_sets = config.num_sets
    order, _keys, bounds = _group_by_set(_set_index(lines, num_sets), num_sets)
    tags_seq = lines[order].tolist()
    pos_seq = order.tolist()
    ways = config.associativity
    miss_pos: List[int] = []
    groups = range(len(bounds) - 1)
    if config.policy is ReplacementPolicy.RANDOM:
        rng = np.random.default_rng(0)
        heap: List[Tuple[int, int]] = []
        gens = {}
        for g in groups:
            s, e = bounds[g], bounds[g + 1]
            gen = _replay_set_random(tags_seq[s:e], pos_seq[s:e], ways, miss_pos)
            stall = next(gen, None)
            if stall is not None:
                gens[g] = gen
                heapq.heappush(heap, (stall, g))
        while heap:
            _pos, g = heapq.heappop(heap)
            try:
                stall = gens[g].send(int(rng.integers(0, ways)))
            except StopIteration:
                del gens[g]
            else:
                heapq.heappush(heap, (stall, g))
    else:
        for g in groups:
            s, e = bounds[g], bounds[g + 1]
            _replay_set_fifo(tags_seq[s:e], pos_seq[s:e], ways, miss_pos)
    miss = np.asarray(miss_pos, dtype=np.intp)
    miss.sort()
    return miss


# ---------------------------------------------------------------------------
# branch predictors
# ---------------------------------------------------------------------------


def _segmented_clamp_scan(
    keys: np.ndarray, steps: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive segmented prefix composition of saturating-counter steps.

    A saturating-counter update is the clamped add
    ``f(c) = min(3, max(0, c + step))``, and compositions of clamped
    adds stay in the three-parameter family
    ``f(c) = min(h, max(l, c + s))`` — an associative monoid.  All
    per-position prefix compositions within each segment (a run of
    equal ``keys``) are therefore computed with O(log n) Hillis-Steele
    doubling passes of pure numpy work instead of a per-access Python
    loop; doubling stops at the first stride no segment is longer
    than.  Returns the ``(s, h, l)`` arrays of the inclusive
    composition ending at each position, in ``int32``: ``|s|`` and
    ``l`` are at most the stream length, and ``h`` stays in ``[0, 3]``.
    ``steps`` becomes ``s``.
    """
    n = int(steps.size)
    s = steps
    h = np.full(n, 3, dtype=np.int32)
    low = np.zeros(n, dtype=np.int32)
    d = 1
    while d < n:
        same = keys[d:] == keys[:-d]
        if not same.any():
            break
        # current element covers (i-d, i], the shifted one (i-2d, i-d]:
        # compose shifted-first, current-second, all from this pass's
        # inputs, then merge where both lie in one segment.
        cur = s[d:]
        s2 = s[:-d] + cur
        l2 = low[:-d] + cur
        np.maximum(l2, low[d:], out=l2)
        h2 = h[:-d] + cur
        np.maximum(h2, low[d:], out=h2)
        np.minimum(h2, h[d:], out=h2)
        np.copyto(cur, s2, where=same)
        np.copyto(low[d:], l2, where=same)
        np.copyto(h[d:], h2, where=same)
        d <<= 1
    return s, h, low


def _counters_high(
    indices: np.ndarray, entries: int, steps: np.ndarray
) -> np.ndarray:
    """Whether each access finds its two-bit counter at 2 or 3.

    ``indices`` and ``steps`` (``int32``) are per access, in stream
    order.  Every counter of the ``entries``-entry table starts at 2,
    as in a fresh predictor, and a counter's trajectory depends only
    on its own access subsequence: the state an access reads is 2 at
    the start of its index's run in set-major order, and otherwise the
    previous position's prefix composition applied to 2.
    """
    order, keys, _bounds = _group_by_set(indices, entries)
    s, h, low = _segmented_clamp_scan(keys, steps[order])
    s += 2
    np.maximum(s, low, out=s)
    np.minimum(s, h, out=s)
    high = np.ones(int(keys.size), dtype=bool)
    np.greater_equal(s[:-1], 2, out=high[1:], where=keys[1:] == keys[:-1])
    out = np.empty_like(high)
    out[order] = high
    return out


def _gshare_histories(taken: np.ndarray) -> np.ndarray:
    """Global-history register before each branch, from an empty one.

    The register holds the last :data:`GSHARE_HISTORY_BITS` outcomes,
    newest in bit 0, so its value before branch ``i`` is the sum of
    ``taken[i - j] << (j - 1)`` over ``j`` = 1..12.  Twelve bits fit
    ``uint16``.
    """
    bits = taken.astype(np.uint16)
    histories = np.zeros(int(taken.size), dtype=np.uint16)
    for j in range(1, GSHARE_HISTORY_BITS + 1):
        histories[j:] |= bits[:-j] << np.uint16(j - 1)
    return histories


def _index_cap(sites: np.ndarray) -> Optional[int]:
    """Table entries past which no predictor aliases on ``sites``.

    ``None`` when a site is negative: the cap argument (module
    docstring) needs ``pc & mask`` to be ``pc`` itself.
    """
    if sites.size and int(sites.min()) < 0:
        return None
    top = int(sites.max()) if sites.size else 0
    return 1 << max(top.bit_length(), GSHARE_HISTORY_BITS)


class BranchTables:
    """The fresh predictor tables one branch stream drives.

    :meth:`predict` replays each distinct table once: predictions are
    memoized by (component, entries), and a tournament reads its
    bimodal and gshare components from the same memo as standalone
    tables of its size.  Every table is first capped at the stream's
    index range (:func:`_index_cap`), so tables of any size at or above
    the cap share one replay.  :attr:`predictions` holds one entry per
    two-bit or chooser table scanned.
    """

    def __init__(self, sites: np.ndarray, taken: np.ndarray) -> None:
        self.sites = np.ascontiguousarray(sites, dtype=np.int64)
        self.taken = np.ascontiguousarray(taken, dtype=bool)
        self.cap = _index_cap(self.sites)
        self.predictions: Dict[Tuple[str, int], np.ndarray] = {}
        self._histories = _gshare_histories(self.taken)
        self._steps = self.taken.astype(np.int32) * 2 - 1

    def predict(self, kind: str, entries: int) -> np.ndarray:
        """Per-access predicted directions of a fresh ``kind`` predictor.

        ``entries`` is a power of two (see
        :func:`repro.uarch.branch.predictor_table_entries`).  Equal, per
        access, to the directions the scalar oracle's predictor of the
        same kind and table (``tests/scalar_uarch.py``) predicts when
        stepped through the stream with ``predict_and_update``.  Callers must not modify
        the returned array: the memo shares it.
        """
        if kind == "static":
            return np.ones(int(self.taken.size), dtype=bool)
        if self.cap is not None:
            entries = min(entries, self.cap)
        key = (kind, entries)
        preds = self.predictions.get(key)
        if preds is not None:
            return preds
        mask = entries - 1
        if kind == "bimodal":
            preds = _counters_high(self.sites & mask, entries, self._steps)
        elif kind == "gshare":
            indices = (self.sites ^ self._histories) & mask
            preds = _counters_high(indices, entries, self._steps)
        else:
            # The chooser steps towards gshare when only gshare was
            # right and towards bimodal when only bimodal was.
            bimodal = self.predict("bimodal", entries)
            gshare = self.predict("gshare", entries)
            steps = (gshare == self.taken).astype(np.int32)
            steps -= bimodal == self.taken
            use_gshare = _counters_high(self.sites & mask, entries, steps)
            preds = np.where(use_gshare, gshare, bimodal)
        self.predictions[key] = preds
        return preds
