"""Fused multi-machine replay: one trace, a batch of machine configs.

The trace engine replays one synthesized trace per machine.  Machines
sharing a (line_bytes, page_bytes) geometry already share the *trace*
(:func:`repro.perf.trace_cache.trace_seed` gives them one seed); this
module additionally shares the *simulation work* across a batch of
machines: every machine's miss counts are derived from shared passes
over the trace, one per distinct structure, so the per-access Python
cost is paid once per structure rather than once per machine.

Why the shared pass is exact
----------------------------

The assembled :class:`~repro.perf.counters.CounterReport` reads only
*post-warm-up miss counts* off the simulated structures — never final
tag state, stamps, dirty bits, writebacks or evictions.  For an LRU
structure (every paper machine's caches, and every TLB) the hit/miss
outcome of an access is a pure function of its **set-local reuse
history**: access ``i`` hits a ``W``-way set iff the accessed line is
among the ``W`` most recently touched distinct lines of its set.  So
one set partition (a stable argsort) and one run compression (adjacent
repeats are depth-0 hits that leave the recency order unchanged) serve
every associativity of one (line/page bytes, num_sets) geometry; each
associativity then replays only the compressed transition stream with
an O(1)-per-access recency dict, skipping all the state bookkeeping
(stamps, dirty bits, writebacks, victim metadata) the exact simulators
maintain but the reports never read.

Sets that hold their footprint
------------------------------

An LRU set evicts only when a new line arrives while it holds ``W``
distinct lines.  A set whose stream touches at most ``W`` distinct
lines therefore never evicts (no access in it has an LRU stack
distance of ``W`` or more), and its misses are exactly the first touch
of each of its lines.  So only the sets that *overflow*, touching more
distinct lines than the level has ways, take the dict replay; every
other set contributes its lines' first touches, and a level or TLB
whose busiest set fits misses exactly at its stream's first touches,
with no set partition or run compression at all.

The footprint (each distinct line and the position of its first touch:
one in-place sort of ``line << k | position`` keys) is computed once
per trace side and line size, not once per level.  It is also the
footprint of every cache level behind L1 whose lines are at least as
large as those of every level in front: the first touch of such a
line touches, in each level in front, a line that lies inside it and
so was never seen before; it misses there, whatever that level's
policy, and reaches this level.  That level's stream therefore holds
every distinct line of the side, each first seen at the side's first
touch.  Behind a level with *larger* lines, a line's first touch may
hit the coarser line already held in front and never arrive, so such
a level takes the footprint of its own stream.  So does every
second-level TLB: its stream is the misses of the L1 TLB(s) in front,
concatenated for a unified one.

Non-LRU levels (FIFO/RANDOM victim choice changes residency, so the
stack-depth shortcut does not apply) take one exact cold replay per
distinct (sets, ways, policy) through
:func:`repro.uarch.kernels._simulate_level`, which draws RANDOM victims
from the same generator a fresh scalar ``Cache`` of the test oracle
owns.

Miss streams propagate level by level: a level's misses, in stream
order, form the next level's access stream — so machines sharing an
(sets, ways[, policy]) prefix share every pass of that prefix and split
only where their hierarchies diverge.

Replays outlive the batch
-------------------------

A replay is cold and covers the whole stream, so what it yields — a
cache level's miss positions, a TLB's miss mask, a predictor's
per-branch directions — depends on the trace and on the structures in
front of it, never on the warm-up cut or on the rest of the batch.
:class:`TraceReplays` keeps them for one trace, with the trace's
footprints, and each :func:`replay_fused` call cuts its own
post-warm-up counts from them, so a later batch on the same trace (the
next campaign shard's machines) replays only the structures no earlier
batch had.

This is the trace engine's only replay path.  The scalar per-access
simulators of ``tests/scalar_uarch.py`` are the reference oracle: the
test suite replays randomized machine batches through both, whole and split
across calls that share one :class:`TraceReplays`, and requires
bit-identical counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.uarch.branch import predictor_table_entries
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.kernels import (
    BranchTables,
    _group_by_set,
    _set_index,
    _simulate_level,
)
from repro.uarch.machine import MachineConfig

__all__ = [
    "resolve_replay",
    "FusedCounts",
    "TraceReplays",
    "replay_fused",
]


# Kept only for benchmarks/e2e/op.py (_knobs), which records it.
def resolve_replay(replay: None = None) -> str:
    """The trace engine's one replay strategy."""
    return "fused"


@dataclass
class FusedCounts:
    """Raw post-warm-up event counts for one machine.

    Exactly the quantities the report assembly of
    :mod:`repro.perf.trace_engine` consumes; everything else the exact
    simulators track (state, stamps, writebacks) is never read and is
    therefore not computed by the fused engine.
    """

    data_misses: List[int]  # per data-cache level, innermost first
    inst_misses: List[int]  # per instruction-cache level
    dtlb_misses: int
    data_walks: int
    itlb_misses: int
    total_walks: int
    last_tlb_misses: int
    mispredicts: int
    taken_count: int


class TraceReplays:
    """The structure replays of one trace, for every batch that replays it.

    * ``misses`` maps ``(side, chain)`` to one cache level's miss
      positions in the top-level stream, ascending.  ``side`` is
      ``"data"`` or ``"inst"``; ``chain`` holds the ``(line_bytes,
      num_sets, ways, policy)`` of every level from L1 down to this one,
      since a level's access stream is the misses of the levels in
      front of it.
    * ``tlb_masks`` maps ``(stream, (page_bytes, num_sets, ways))`` to
      one TLB's per-access miss mask.  ``stream`` names what the TLB
      translates: ``("data",)`` or ``("inst",)`` for an L1 TLB; for an
      L2 TLB the misses of the L1 TLB key(s) in front of it, tagged
      ``"unified"``, ``"data"`` or ``"inst"``.
    * ``branch_tables`` is the trace's :class:`BranchTables`.
    * ``footprints`` maps ``(side, line_bytes)`` to the footprint of
      the side's stream at that line (or page) size, which the side's
      levels and L1 TLBs share (see :meth:`footprint`).

    Valid for one trace only: its owner keeps one per trace.
    """

    def __init__(self) -> None:
        self.misses: Dict[tuple, np.ndarray] = {}
        self.tlb_masks: Dict[tuple, np.ndarray] = {}
        self.branch_tables: Optional[BranchTables] = None
        self.footprints: Dict[Tuple[str, int], _Footprint] = {}

    def footprint(
        self, side: str, line_bytes: int, stream: np.ndarray
    ) -> _Footprint:
        """The footprint of ``stream``, the side's, at ``line_bytes``."""
        key = (side, line_bytes)
        footprint = self.footprints.get(key)
        if footprint is None:
            footprint = self.footprints[key] = _Footprint(
                stream >> (line_bytes.bit_length() - 1)
            )
        return footprint

    def __len__(self) -> int:
        """Replays held: cache levels, TLBs and the branch tables."""
        return (
            len(self.misses)
            + len(self.tlb_masks)
            + (self.branch_tables is not None)
        )

    def clear(self) -> None:
        """Drop every replay; the next batch on the trace starts over."""
        self.misses.clear()
        self.tlb_masks.clear()
        self.branch_tables = None
        self.footprints.clear()


# ---------------------------------------------------------------------------
# shared LRU replay
# ---------------------------------------------------------------------------


class _Tally:
    """Work counts of one :func:`replay_fused` call."""

    __slots__ = ("replays", "replay_hits", "footprint_levels", "lru_accesses")

    def __init__(self) -> None:
        self.replays = 0  # cache levels and TLBs replayed
        self.replay_hits = 0  # ... served from the memo
        self.footprint_levels = 0  # ... replayed with no set overflowing
        self.lru_accesses = 0  # compressed accesses the dict loop visited


class _Footprint:
    """The distinct lines (or pages) of one stream and their first touches.

    ``lines`` holds the distinct line numbers, ascending, and
    ``first[i]`` the stream position of ``lines[i]``'s first access.
    ``touches`` is ``first`` in ascending order: the miss positions of
    every LRU structure on this stream whose sets all hold their
    footprint, shared read-only by all of them.  Per set count, only
    the busiest set's line count is kept (:meth:`busiest`).
    """

    __slots__ = ("lines", "first", "touches", "_busiest")

    def __init__(self, lines: np.ndarray) -> None:
        n = int(lines.size)
        bits = max(n - 1, 0).bit_length()  # enough for any position
        packed = not n or (
            int(lines.min()) >= 0 and not int(lines.max()) >> (63 - bits)
        )
        if packed:
            # One sort orders the lines, each line's positions ascending.
            key = lines << bits
            key |= np.arange(n, dtype=key.dtype)
            key.sort()
            ordered = key >> bits
        else:
            # The packed key would overflow: sort the lines stably.
            key = np.argsort(lines, kind="stable")
            ordered = lines[key]
        starts = np.empty(n, dtype=bool)
        starts[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        starts = np.flatnonzero(starts)
        self.lines = ordered[starts]
        self.first = key[starts]
        if packed:
            self.first &= (1 << bits) - 1
        self.touches = np.sort(self.first)
        self.touches.flags.writeable = False
        self._busiest: Dict[int, int] = {}

    def set_counts(self, num_sets: int) -> np.ndarray:
        """Distinct lines per set, for ``num_sets`` sets."""
        return np.bincount(
            _set_index(self.lines, num_sets), minlength=num_sets
        )

    def busiest(self, num_sets: int) -> int:
        """The most distinct lines any one of ``num_sets`` sets holds."""
        count = self._busiest.get(num_sets)
        if count is None:
            count = self._busiest[num_sets] = int(
                self.set_counts(num_sets).max()
            )
        return count


def _compress_runs(
    tags: np.ndarray, bounds: List[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse consecutive equal tags inside each partition group.

    A consecutive repeat of a tag is a depth-0 hit that leaves the
    recency order unchanged (the MRU entry stays MRU), so the Python
    replay loops only need to visit transitions — on spatially local
    streams a small fraction of the accesses.  Returns the kept
    positions (indices into the partitioned order) and the group
    bounds remapped onto them.
    """
    n = int(tags.size)
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(tags[1:], tags[:-1], out=keep[1:])
    keep[np.asarray(bounds[:-1], dtype=np.intp)] = True
    kept = np.flatnonzero(keep)
    return kept, np.searchsorted(kept, bounds)


def _replay_lru_misses(
    tags_seq: list, los: List[int], his: List[int], ways: int
) -> List[int]:
    """Miss positions of a ``ways``-way LRU replay, one set at a time.

    Set ``g`` is ``tags_seq[los[g]:his[g]]``, run-compressed (no
    adjacent equal tags).  The recency order lives in an
    insertion-ordered dict (least recent first): a hit pops and
    reinserts at the MRU end, the victim is the first key — every
    access costs O(1) dict work with no list scans.
    """
    miss: List[int] = []
    ap = miss.append
    for lo, hi in zip(los, his):
        d: dict = {}
        pop = d.pop
        for pos, tag in enumerate(tags_seq[lo:hi], lo):
            if pop(tag, None) is None:
                ap(pos)
                if len(d) >= ways:
                    del d[next(iter(d))]
            d[tag] = True
    return miss


def _set_partition(
    lines: np.ndarray, num_sets: int, hot: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, List[int]]:
    """Group the accesses of the sets ``hot`` marks by set.

    Returns ``(order, group_sets, bounds)``: group ``g`` is set
    ``group_sets[g]``, whose stream positions, ascending, are
    ``order[bounds[g]:bounds[g + 1]]``.
    """
    if num_sets == 1:
        n = int(lines.size)
        return np.arange(n), np.zeros(1, dtype=np.intp), [0, n]
    sets = _set_index(lines, num_sets)
    picked = np.flatnonzero(hot[sets])
    order, keys, bounds = _group_by_set(sets[picked], num_sets)
    return picked[order], keys[bounds[:-1]], bounds


def _lru_miss_streams(
    footprint: _Footprint,
    stream: Callable[[], np.ndarray],
    orig: Optional[np.ndarray],
    num_sets: int,
    assocs: Sequence[int],
    tally: _Tally,
) -> Dict[int, np.ndarray]:
    """Sorted miss positions per associativity (ascending ``assocs``).

    ``footprint`` is the footprint of this (line/page, sets) geometry's
    access stream, positions in the stream it was computed on;
    ``stream()`` returns the access stream's lines, and ``orig`` maps
    their positions onto the footprint's (``None``: the same stream).
    Returned positions are the footprint's.

    An associativity that the busiest set fits misses exactly at the
    footprint's first touches, which it shares.  The others build the
    stream once: one set partition and run compression of the sets
    that overflow the smallest of them serve every one, and each
    replays only the sets it overflows with the O(1) dict replay, plus
    the first touches of the lines in the sets it does not.
    """
    busiest = footprint.busiest(num_sets)
    out = {ways: footprint.touches for ways in assocs if busiest <= ways}
    tally.footprint_levels += len(out)
    overflowing = [ways for ways in assocs if ways < busiest]
    if not overflowing:
        return out
    counts = footprint.set_counts(num_sets)
    lines = stream()
    order, group_sets, bounds = _set_partition(
        lines, num_sets, counts > overflowing[0]
    )
    tags = lines[order]
    kept, comp_bounds = _compress_runs(tags, bounds)
    comp = tags[kept].tolist()
    where = order[kept]
    if orig is not None:
        where = orig[where]
    group_counts = counts[group_sets]
    line_counts = counts[_set_index(footprint.lines, num_sets)]
    for ways in overflowing:
        loop = group_counts > ways
        los = comp_bounds[:-1][loop]
        his = comp_bounds[1:][loop]
        tally.lru_accesses += int(his.sum() - los.sum())
        miss_comp = _replay_lru_misses(comp, los.tolist(), his.tolist(), ways)
        miss = np.concatenate((
            where[np.asarray(miss_comp, dtype=np.intp)],
            footprint.first[line_counts <= ways],
        ))
        miss.sort()
        out[ways] = miss
    return out


# ---------------------------------------------------------------------------
# cache hierarchies
# ---------------------------------------------------------------------------

# One hierarchy entry: (machine slot, remaining CacheConfig levels).
_Entry = Tuple[int, List[CacheConfig]]


def _postcut_count(miss_orig: np.ndarray, cut: int) -> int:
    return int(miss_orig.size) - int(np.searchsorted(miss_orig, cut))


def _level_key(config: CacheConfig) -> tuple:
    return (
        config.line_bytes, config.num_sets, config.associativity,
        config.policy,
    )


def _simulate_cache_levels(
    entries: List[_Entry],
    top: np.ndarray,
    chain: tuple,
    orig: Optional[np.ndarray],
    cut: int,
    out: List[List[int]],
    replays: TraceReplays,
    tally: _Tally,
) -> None:
    """Count one cache level for every entry, then recurse.

    ``chain`` is the memo key of the levels in front (just the side at
    L1).  This level's accesses are the misses of those levels: their
    positions in ``top``, the side's whole stream, are ``orig``
    (``None`` at L1, where every position is an access).  Each distinct
    level the entries need that ``replays.misses`` lacks is replayed
    into it; every entry then gets its level's post-cut miss count
    appended to ``out[slot]``, and entries with deeper levels descend
    on this level's misses.
    """
    misses = replays.misses
    groups: Dict[tuple, List[_Entry]] = {}
    for slot, configs in entries:
        groups.setdefault(chain + (_level_key(configs[0]),), []).append(
            (slot, configs)
        )
    missing = {
        key: group[0][1][0] for key, group in groups.items()
        if key not in misses
    }
    tally.replays += len(missing)
    tally.replay_hits += len(groups) - len(missing)
    if missing:
        _replay_levels(missing, top, chain, orig, replays, tally)
    for key, group in groups.items():
        miss_orig = misses[key]
        count = _postcut_count(miss_orig, cut)
        deeper: List[_Entry] = []
        for slot, configs in group:
            out[slot].append(count)
            if len(configs) > 1:
                deeper.append((slot, configs[1:]))
        if deeper:
            _simulate_cache_levels(
                deeper, top, key, miss_orig, cut, out, replays, tally
            )


def _replay_levels(
    levels: Dict[tuple, CacheConfig],
    top: np.ndarray,
    chain: tuple,
    orig: Optional[np.ndarray],
    replays: TraceReplays,
    tally: _Tally,
) -> None:
    """Replay cold levels behind ``chain`` into ``replays.misses``.

    ``levels`` maps memo keys to the levels' configs.  Their access
    stream is ``top[orig]`` (``top`` at L1), built only for a level
    that needs it: a FIFO/RANDOM level, or an LRU level with a set that
    overflows.  Equal-geometry LRU levels share one footprint and at
    most one set partition.
    """
    misses = replays.misses
    stream: Optional[np.ndarray] = None

    def addrs() -> np.ndarray:
        nonlocal stream
        if stream is None:
            stream = top if orig is None else top[orig]
        return stream

    lru_groups: Dict[Tuple[int, int], List[tuple]] = {}
    for key, config in levels.items():
        if config.policy is ReplacementPolicy.LRU:
            lru_groups.setdefault(
                (config.line_bytes, config.num_sets), []
            ).append(key)
        elif addrs().size == 0:
            misses[key] = np.zeros(0, dtype=np.intp)
        else:
            # One cold exact replay per distinct (sets, ways, policy),
            # with the RNG stream of a fresh Cache (see _simulate_level).
            miss_local = _simulate_level(config, addrs())
            misses[key] = miss_local if orig is None else orig[miss_local]
    front = max((level[0] for level in chain[1:]), default=0)
    for (line_bytes, num_sets), keys in lru_groups.items():
        shift = line_bytes.bit_length() - 1

        def lines() -> np.ndarray:
            return addrs() >> shift

        assocs = sorted({levels[key].associativity for key in keys})
        if line_bytes >= front:
            # The side's first touches all reach this level (see the
            # module docstring), so the side's footprint is its own.
            miss_streams = _lru_miss_streams(
                replays.footprint(chain[0], line_bytes, top),
                lines, orig, num_sets, assocs, tally,
            )
        else:
            miss_streams = {
                ways: orig[miss]
                for ways, miss in _lru_miss_streams(
                    _Footprint(lines()), lines, None, num_sets, assocs, tally
                ).items()
            }
        for key in keys:
            misses[key] = miss_streams[levels[key].associativity]


def _machine_chain(machine: MachineConfig, first_level: str) -> List[CacheConfig]:
    configs = [getattr(machine, first_level), machine.l2]
    if machine.l3 is not None:
        configs.append(machine.l3)
    return configs


# ---------------------------------------------------------------------------
# TLBs
# ---------------------------------------------------------------------------


def _tlb_key(config) -> Tuple[int, int, int]:
    return (config.page_bytes, config.num_sets, config.associativity)


def _replay_tlbs(
    wanted: Sequence[tuple],
    stream_of: Callable[[tuple], np.ndarray],
    replays: TraceReplays,
    tally: _Tally,
) -> None:
    """Replay every wanted ``(stream, tlb)`` key the memo lacks.

    ``stream_of(stream)`` is the address stream a key's TLB translates.
    TLBs are always LRU, so one footprint per (stream, page_bytes)
    serves every TLB on it: an L1 TLB's is its side's, shared with the
    side's caches; a second-level TLB's is its own stream's.
    """
    masks = replays.tlb_masks
    groups: Dict[tuple, Dict[int, set]] = {}
    for key in wanted:
        if key in masks:
            tally.replay_hits += 1
            continue
        tally.replays += 1
        stream, (page_bytes, num_sets, ways) = key
        groups.setdefault((stream, page_bytes), {}).setdefault(
            num_sets, set()
        ).add(ways)
    for (stream, page_bytes), by_sets in groups.items():
        addrs = stream_of(stream)
        shift = page_bytes.bit_length() - 1

        def pages() -> np.ndarray:
            return addrs >> shift

        if len(stream) == 1:
            footprint = replays.footprint(stream[0], page_bytes, addrs)
        else:
            footprint = _Footprint(pages())
        for num_sets, assocs in by_sets.items():
            miss_streams = _lru_miss_streams(
                footprint, pages, None, num_sets, sorted(assocs), tally
            )
            for ways in assocs:
                mask = np.zeros(addrs.size, dtype=bool)
                mask[miss_streams[ways]] = True
                masks[(stream, (page_bytes, num_sets, ways))] = mask


def _simulate_tlbs(
    machines: Sequence[MachineConfig],
    data: np.ndarray,
    inst: np.ndarray,
    warm_d: int,
    warm_i: int,
    replays: TraceReplays,
    tally: _Tally,
) -> List[Tuple[int, int, int, int, int]]:
    """Per-machine TLB counters for the whole batch.

    Returns ``(dtlb_misses, data_walks, itlb_misses, total_walks,
    last_tlb_misses)`` per machine, matching the scalar oracle's
    ``TlbHierarchy`` (``tests/scalar_uarch.py``) bit-for-bit: data counters
    are post-cut at ``warm_d``, instruction counters post-cut at
    ``warm_i``, and last-level misses keep the reference's asymmetric
    baseline (all instruction-side events, post-cut data-side events).
    ``replays`` is the trace's :class:`TraceReplays`.
    """
    sides = {"data": data, "inst": inst}
    masks = replays.tlb_masks

    def l1_key(side: str, config) -> tuple:
        return ((side,), _tlb_key(config))

    def stream_of(stream: tuple) -> np.ndarray:
        # An L1 TLB translates its side's stream.  Second-level TLBs
        # see the misses of the L1 TLBs in front; a unified one sees
        # the data misses followed by the instruction misses, exactly
        # like TlbHierarchy's data-then-instruction translate order.
        if len(stream) == 1:
            return sides[stream[0]]
        if stream[0] == "unified":
            return np.concatenate((
                data[masks[(("data",), stream[1])]],
                inst[masks[(("inst",), stream[2])]],
            ))
        side, l1 = stream
        return sides[side][masks[((side,), l1)]]

    def l2_keys(machine: MachineConfig) -> List[tuple]:
        # The unified L2 TLB's key, or the data and instruction ones.
        dk = _tlb_key(machine.dtlb)
        ik = _tlb_key(machine.itlb)
        l2 = _tlb_key(machine.l2tlb)
        if machine.unified_l2tlb:
            return [(("unified", dk, ik), l2)]
        return [(("data", dk), l2), (("inst", ik), l2)]

    # dict keys: the distinct TLBs in first-appearance order.
    l1_wanted: Dict[tuple, None] = {}
    l2_wanted: Dict[tuple, None] = {}
    for machine in machines:
        l1_wanted[l1_key("data", machine.dtlb)] = None
        l1_wanted[l1_key("inst", machine.itlb)] = None
        if machine.l2tlb is not None:
            l2_wanted.update(dict.fromkeys(l2_keys(machine)))
    _replay_tlbs(list(l1_wanted), stream_of, replays, tally)
    _replay_tlbs(list(l2_wanted), stream_of, replays, tally)

    results: List[Tuple[int, int, int, int, int]] = []
    for machine in machines:
        d_mask = masks[l1_key("data", machine.dtlb)]
        i_mask = masks[l1_key("inst", machine.itlb)]
        dtlb_misses = int(np.count_nonzero(d_mask[warm_d:]))
        itlb_misses = int(np.count_nonzero(i_mask[warm_i:]))
        if machine.l2tlb is None:
            # Every L1 miss walks; last-level misses are the L1 misses
            # themselves (post-cut data, all instruction).
            data_walks = dtlb_misses
            inst_walks_postcut = itlb_misses
            last_tlb_misses = dtlb_misses + int(np.count_nonzero(i_mask))
        else:
            d_pos = np.flatnonzero(d_mask)
            i_pos = np.flatnonzero(i_mask)
            keys = l2_keys(machine)
            if machine.unified_l2tlb:
                walk = masks[keys[0]]
                nd = int(d_pos.size)
                d_walk_pos = d_pos[walk[:nd]]
                i_walk_pos = i_pos[walk[nd:]]
            else:
                d_walk_pos = d_pos[masks[keys[0]]]
                i_walk_pos = i_pos[masks[keys[1]]]
            data_walks = int(np.count_nonzero(d_walk_pos >= warm_d))
            inst_walks_postcut = int(np.count_nonzero(i_walk_pos >= warm_i))
            last_tlb_misses = data_walks + int(i_walk_pos.size)
        total_walks = data_walks + inst_walks_postcut
        results.append(
            (dtlb_misses, data_walks, itlb_misses, total_walks,
             last_tlb_misses)
        )
    return results


# ---------------------------------------------------------------------------
# branch predictors
# ---------------------------------------------------------------------------


def _simulate_branches(
    machines: Sequence[MachineConfig],
    branch_sites: np.ndarray,
    branch_taken: np.ndarray,
    warm_b: int,
    replays: TraceReplays,
) -> Tuple[List[int], int]:
    """Per-machine mispredict counts plus the shared taken count.

    The trace's one :class:`~repro.uarch.kernels.BranchTables` serves
    the batch, so each distinct predictor table is replayed once per
    trace, whichever batch first needs it.
    """
    measured = branch_taken[warm_b:]
    taken_count = int(np.count_nonzero(measured))
    tables = replays.branch_tables
    if tables is None:
        tables = replays.branch_tables = BranchTables(
            branch_sites, branch_taken
        )
    scanned = len(tables.predictions)
    memo: Dict[Tuple[str, int], int] = {}
    mispredicts: List[int] = []
    for machine in machines:
        spec = machine.predictor
        key = (spec.kind, predictor_table_entries(spec))
        if key not in memo:
            preds = tables.predict(*key)
            memo[key] = int(np.count_nonzero(preds[warm_b:] != measured))
        mispredicts.append(memo[key])
    # Against trace_engine.profiles this gives machines per table
    # scan, so a lost share of branch work shows up as a series.
    _count("trace_engine.branch_tables", len(tables.predictions) - scanned)
    return mispredicts, taken_count


def _count(name: str, amount: int) -> None:
    # Zero is never counted: a pool worker ships positive deltas only,
    # so a zero would make a series that a --jobs N run lacks.
    if amount:
        obs_metrics.incr(name, amount)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def replay_fused(
    machines: Sequence[MachineConfig],
    data_addresses: np.ndarray,
    ifetch_addresses: np.ndarray,
    branch_sites: np.ndarray,
    branch_taken: np.ndarray,
    warmup_fraction: float,
    replays: Optional[TraceReplays] = None,
) -> List[FusedCounts]:
    """Replay one trace through a batch of machines in shared passes.

    Returns one :class:`FusedCounts` per machine, in input order, each
    bit-identical to what the scalar per-access simulators count for
    that machine on the same streams.  The machines need not share
    anything — groups form per structure geometry, so a batch of
    identical machines costs one pass and a batch of disjoint machines
    degrades to per-machine work without the per-call overheads.
    ``warmup_fraction`` (in ``[0, 1)``, validated by the trace engine)
    is the leading share of every stream left out of the counts.

    ``replays`` holds what earlier calls replayed on this same trace:
    this call replays only the structures it lacks and adds them to it.
    Without it the batch shares its replays with itself only.
    ``trace_engine.replays`` counts the cache levels and TLBs replayed,
    ``trace_engine.replay_hits`` those served from ``replays``, and
    ``trace_engine.footprint_levels`` the replayed ones whose busiest
    set holds its footprint, so no dict replay ran for them.
    ``trace_engine.lru_accesses`` counts the compressed accesses the
    dict replay visited.
    """
    if replays is None:
        replays = TraceReplays()
    data = np.ascontiguousarray(data_addresses, dtype=np.int64)
    inst = np.ascontiguousarray(ifetch_addresses, dtype=np.int64)
    sites = np.ascontiguousarray(branch_sites, dtype=np.int64)
    taken = np.ascontiguousarray(branch_taken, dtype=bool)
    n = len(machines)
    warm_d = int(data.size * warmup_fraction)
    warm_i = int(inst.size * warmup_fraction)
    warm_b = int(sites.size * warmup_fraction)

    tally = _Tally()
    data_counts: List[List[int]] = [[] for _ in range(n)]
    inst_counts: List[List[int]] = [[] for _ in range(n)]
    _simulate_cache_levels(
        [(i, _machine_chain(m, "l1d")) for i, m in enumerate(machines)],
        data, ("data",), None, warm_d, data_counts, replays, tally,
    )
    _simulate_cache_levels(
        [(i, _machine_chain(m, "l1i")) for i, m in enumerate(machines)],
        inst, ("inst",), None, warm_i, inst_counts, replays, tally,
    )
    tlb_counts = _simulate_tlbs(
        machines, data, inst, warm_d, warm_i, replays, tally
    )
    mispredicts, taken_count = _simulate_branches(
        machines, sites, taken, warm_b, replays
    )
    _count("trace_engine.replays", tally.replays)
    _count("trace_engine.replay_hits", tally.replay_hits)
    _count("trace_engine.footprint_levels", tally.footprint_levels)
    _count("trace_engine.lru_accesses", tally.lru_accesses)

    return [
        FusedCounts(
            data_misses=data_counts[i],
            inst_misses=inst_counts[i],
            dtlb_misses=tlb_counts[i][0],
            data_walks=tlb_counts[i][1],
            itlb_misses=tlb_counts[i][2],
            total_walks=tlb_counts[i][3],
            last_tlb_misses=tlb_counts[i][4],
            mispredicts=mispredicts[i],
            taken_count=taken_count,
        )
        for i in range(n)
    ]
