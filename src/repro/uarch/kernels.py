"""Batch simulation kernels for the exact trace engine.

The scalar simulators (:class:`~repro.uarch.cache.Cache`,
:class:`~repro.uarch.tlb.Tlb`, the predictors in
:mod:`repro.uarch.branch`) process one access per Python method call;
they are the reference oracle the test suite checks the engine against.
The kernels here consume whole address/outcome arrays at once and are
**bit-identical** to them on what the trace engine reads: the miss
positions of a FIFO or RANDOM cache level, and the per-access predicted
directions of the branch predictors.  LRU caches and TLBs take the
stack-depth replay of :mod:`repro.uarch.fused` instead.

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
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

import numpy as np

from repro.uarch.cache import CacheConfig, ReplacementPolicy

__all__ = [
    "resolve_trace_kernel",
    "simulate_two_bit",
    "simulate_chooser",
    "gshare_histories",
]


# Kept only for benchmarks/e2e/op.py (_knobs), which records it.
def resolve_trace_kernel(kernel: None = None) -> str:
    """The trace engine's one kernel configuration."""
    return "vector"


# ---------------------------------------------------------------------------
# caches
# ---------------------------------------------------------------------------


def _group_by_set(sets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Stable-sort a set-index stream into per-set groups.

    Returns ``(order, touched, bounds)`` where ``order`` permutes the
    stream into set-major order, ``touched`` lists the distinct sets in
    that order and group ``g`` occupies ``order[bounds[g]:bounds[g+1]]``.
    """
    order = np.argsort(sets, kind="stable")
    sorted_sets = sets[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_sets[1:] != sorted_sets[:-1]))
    )
    touched = sorted_sets[starts]
    bounds = starts.tolist()
    bounds.append(int(sets.size))
    return order, touched, bounds


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

    Bit-identical to calling ``Cache(config).access`` per element on a
    fresh cache: empty sets, and RANDOM victims drawn from
    ``default_rng(0)``, the cache's own default generator.  Writes only
    set dirty bits and never change a hit/miss outcome, so the stream
    replays write-free.  ``addrs`` must be non-empty.
    """
    lines = addrs >> (config.line_bytes.bit_length() - 1)
    num_sets = config.num_sets
    if num_sets & (num_sets - 1) == 0:
        sets = lines & (num_sets - 1)
    else:
        sets = lines % num_sets
    order, _touched, bounds = _group_by_set(sets)
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
    steps: np.ndarray, seg: np.ndarray, max_seg: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive segmented prefix composition of saturating-counter steps.

    A saturating-counter update is the clamped add
    ``f(c) = min(3, max(0, c + step))``, and compositions of clamped
    adds stay in the three-parameter family
    ``f(c) = min(h, max(l, c + s))`` — an associative monoid.  All
    per-position prefix compositions within each segment are therefore
    computed with O(log n) Hillis-Steele doubling passes of pure numpy
    work instead of a per-access Python loop; doubling stops once the
    stride covers ``max_seg``, the largest segment length.  Returns the
    ``(s, h, l)`` arrays of the inclusive composition ending at each
    position.
    """
    n = int(steps.size)
    s = steps.astype(np.int64, copy=True)
    h = np.full(n, 3, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    d = 1
    while d < max_seg:
        same = np.zeros(n, dtype=bool)
        np.equal(seg[d:], seg[:-d], out=same[d:])
        ps = np.zeros(n, dtype=np.int64)
        ph = np.zeros(n, dtype=np.int64)
        pl = np.zeros(n, dtype=np.int64)
        ps[d:] = s[:-d]
        ph[d:] = h[:-d]
        pl[d:] = low[:-d]
        # current element covers (i-d, i], the shifted one (i-2d, i-d]:
        # compose shifted-first, current-second.
        s2 = ps + s
        l2 = np.maximum(low, pl + s)
        h2 = np.minimum(h, np.maximum(low, ph + s))
        s = np.where(same, s2, s)
        low = np.where(same, l2, low)
        h = np.where(same, h2, h)
        d <<= 1
    return s, h, low


def _scan_counter_states(
    counters: np.ndarray,
    touched: np.ndarray,
    bounds: List[int],
    seg: np.ndarray,
    steps: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Pre-access counter states for a partitioned step stream.

    Returns the counter value seen by each access (before its own
    update) and writes the final per-counter states back into
    ``counters`` — the vectorized equivalent of replaying each touched
    counter's subsequence one access at a time.
    """
    n = int(steps.size)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    s, h, low = _segmented_clamp_scan(steps, seg, int(sizes.max()))
    start = counters[touched].astype(np.int64)
    c0 = np.repeat(start, sizes)
    has_prev = np.zeros(n, dtype=bool)
    has_prev[1:] = seg[1:] == seg[:-1]
    ps = np.zeros(n, dtype=np.int64)
    ph = np.zeros(n, dtype=np.int64)
    pl = np.zeros(n, dtype=np.int64)
    ps[1:] = s[:-1]
    ph[1:] = h[:-1]
    pl[1:] = low[:-1]
    before = np.where(
        has_prev, np.minimum(ph, np.maximum(pl, c0 + ps)), c0
    )
    last = np.asarray(bounds[1:], dtype=np.int64) - 1
    finals = np.minimum(h[last], np.maximum(low[last], start + s[last]))
    counters[touched] = finals
    return before, c0


def simulate_two_bit(
    counters: np.ndarray, indices: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """Replay a two-bit saturating-counter table over a whole stream.

    ``indices`` are the per-access table indices (already masked);
    ``counters`` is updated in place.  Returns the per-access predicted
    directions — identical to per-element predict-then-update because a
    counter's trajectory depends only on its own access subsequence,
    replayed here as a segmented clamped-add scan.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order, touched, bounds = _group_by_set(indices)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    seg = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    t_sorted = taken[order]
    steps = np.where(t_sorted, 1, -1).astype(np.int64)
    before, _c0 = _scan_counter_states(counters, touched, bounds, seg, steps)
    preds = np.empty(n, dtype=bool)
    preds[order] = before >= 2
    return preds


def gshare_histories(
    history: int, history_bits: int, taken: np.ndarray
) -> np.ndarray:
    """Per-access global-history register values for a taken stream.

    ``histories[i]`` is the register content *before* branch ``i``
    resolves, starting from ``history``: the register is the last
    ``history_bits`` outcomes, so each value is one window of the
    padded outcome bit sequence.
    """
    n = int(taken.size)
    hb = history_bits
    seq = np.empty(n + hb, dtype=np.int64)
    for j in range(hb):
        seq[j] = (history >> (hb - 1 - j)) & 1
    seq[hb:] = taken
    windows = np.lib.stride_tricks.sliding_window_view(seq, hb)[:n]
    weights = (1 << np.arange(hb - 1, -1, -1, dtype=np.int64))
    return windows @ weights


def simulate_chooser(
    chooser: np.ndarray,
    indices: np.ndarray,
    pred_bimodal: np.ndarray,
    pred_gshare: np.ndarray,
    taken: np.ndarray,
) -> np.ndarray:
    """Replay a tournament chooser table over a whole stream.

    Component predictions are precomputed (their counter streams are
    independent of the chooser), so only the per-index chooser counters
    are replayed here.  ``chooser`` is updated in place; returns the
    tournament's per-access predicted directions.
    """
    n = int(indices.size)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order, touched, bounds = _group_by_set(indices)
    sizes = np.diff(np.asarray(bounds, dtype=np.int64))
    seg = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    bp_sorted = pred_bimodal[order]
    gp_sorted = pred_gshare[order]
    t_sorted = taken[order]
    g_eq = gp_sorted == t_sorted
    b_eq = bp_sorted == t_sorted
    # The chooser moves only when exactly one component was right.
    steps = (g_eq & ~b_eq).astype(np.int64) - (~g_eq & b_eq).astype(
        np.int64
    )
    before, _c0 = _scan_counter_states(chooser, touched, bounds, seg, steps)
    preds = np.empty(n, dtype=bool)
    preds[order] = np.where(before >= 2, gp_sorted, bp_sorted)
    return preds
