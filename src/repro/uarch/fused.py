"""Fused multi-machine replay: one trace, a batch of machine configs.

The trace engine replays one synthesized trace per machine.  Machines
sharing a (line_bytes, page_bytes) geometry already share the *trace*
(:func:`repro.perf.trace_cache.trace_seed` gives them one seed); this
module additionally shares the *simulation work* across a batch of
machines: the access stream is
set-partitioned once per distinct structure geometry and every machine's
miss counts are derived from one shared replay pass — amortizing the
argsort/partitioning and per-access Python costs that dominate
warm-trace profiling.

Why the shared pass is exact
----------------------------

The assembled :class:`~repro.perf.counters.CounterReport` reads only
*post-warm-up miss counts* off the simulated structures — never final
tag state, stamps, dirty bits, writebacks or evictions.  For an LRU
structure (every paper machine's caches, and every TLB) the hit/miss
outcome of an access is a pure function of its **set-local reuse
history**: access ``i`` hits a ``W``-way set iff the accessed line is
among the ``W`` most recently touched distinct lines of its set.  So
one set partition (the stable argsort that dominates kernel time) and
one run compression (adjacent repeats are depth-0 hits that leave the
recency order unchanged) are computed per distinct (line/page bytes,
num_sets) geometry and shared by every machine in the batch; each
associativity then replays only the compressed transition stream with
an O(1)-per-access recency dict, skipping all the state bookkeeping
(stamps, dirty bits, writebacks, victim metadata) the exact simulators
maintain but the reports never read.

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
:class:`TraceReplays` keeps them for one trace, and each
:func:`replay_fused` call cuts its own post-warm-up counts from them, so
a later batch on the same trace (the next campaign shard's machines)
replays only the structures no earlier batch had.

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
from repro.uarch.kernels import BranchTables, _group_by_set, _simulate_level
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

    Valid for one trace only: its owner keeps one per trace.
    """

    def __init__(self) -> None:
        self.misses: Dict[tuple, np.ndarray] = {}
        self.tlb_masks: Dict[tuple, np.ndarray] = {}
        self.branch_tables: Optional[BranchTables] = None

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


# ---------------------------------------------------------------------------
# shared LRU replay
# ---------------------------------------------------------------------------


def _compress_runs(
    tags: np.ndarray, bounds: List[int]
) -> Tuple[np.ndarray, List[int]]:
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
    comp_bounds = np.searchsorted(kept, bounds).tolist()
    return kept, comp_bounds


def _replay_lru_misses(
    tags_seq: list, bounds: List[int], ways: int
) -> List[int]:
    """Miss positions of a ``ways``-way LRU replay, one set at a time.

    Expects a run-compressed stream (no adjacent equal tags within a
    group).  The recency order lives in an insertion-ordered dict
    (least recent first): a hit pops and reinserts at the MRU end, the
    victim is the first key — every access costs O(1) dict work with no
    list scans.  Groups of one or
    two accesses skip the dict entirely: with adjacent repeats
    collapsed they are always compulsory misses.
    """
    miss: List[int] = []
    ap = miss.append
    for g in range(len(bounds) - 1):
        lo = bounds[g]
        hi = bounds[g + 1]
        size = hi - lo
        if size <= 2:
            ap(lo)
            if size == 2:
                ap(lo + 1)
            continue
        d: dict = {}
        pop = d.pop
        for pos, tag in enumerate(tags_seq[lo:hi], lo):
            if pop(tag, None) is None:
                ap(pos)
                if len(d) >= ways:
                    del d[next(iter(d))]
            d[tag] = True
    return miss


def _lru_miss_streams(
    tags_part: np.ndarray,
    order: np.ndarray,
    bounds: List[int],
    assocs: Sequence[int],
) -> Dict[int, np.ndarray]:
    """Sorted stream-order miss positions per associativity.

    One run compression and one set partition serve every
    associativity sharing this (line/page, sets) geometry; each ways
    value then replays the compressed transition stream with the O(1)
    dict replay.  When every compressed group is a singleton (sparse
    outer-level streams), every access is a compulsory miss for any
    associativity and the replay is skipped outright.
    """
    kept, comp_bounds = _compress_runs(tags_part, bounds)
    if len(comp_bounds) - 1 == int(kept.size):
        miss_local = order[kept]
        miss_local.sort()
        return {ways: miss_local for ways in assocs}
    comp = tags_part[kept].tolist()
    out: Dict[int, np.ndarray] = {}
    for ways in assocs:
        miss_comp = np.asarray(
            _replay_lru_misses(comp, comp_bounds, ways), dtype=np.intp
        )
        miss_local = order[kept[miss_comp]]
        miss_local.sort()
        out[ways] = miss_local
    return out


def _set_partition(
    lines: np.ndarray, num_sets: int
) -> Tuple[np.ndarray, List[int]]:
    """Partition a line stream by set index; ``(order, bounds)``."""
    if num_sets == 1:
        return np.arange(lines.size, dtype=np.intp), [0, int(lines.size)]
    if num_sets & (num_sets - 1) == 0:
        sets = lines & (num_sets - 1)
    else:
        sets = lines % num_sets
    order, _keys, bounds = _group_by_set(sets, num_sets)
    return order, bounds


# ---------------------------------------------------------------------------
# cache hierarchies
# ---------------------------------------------------------------------------

# One hierarchy entry: (machine slot, remaining CacheConfig levels).
_Entry = Tuple[int, List[CacheConfig]]

#: Structure replays of one call: [computed, served from the memo].
_Tally = List[int]


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
    misses: Dict[tuple, np.ndarray],
    tally: _Tally,
) -> None:
    """Count one cache level for every entry, then recurse.

    ``chain`` is the memo key of the levels in front (just the side at
    L1).  This level's accesses are the misses of those levels: their
    positions in ``top``, the side's whole stream, are ``orig``
    (``None`` at L1, where every position is an access).  Each distinct
    level the entries need that ``misses`` lacks is replayed into it;
    every entry then gets its level's post-cut miss count appended to
    ``out[slot]``, and entries with deeper levels descend on this
    level's misses.
    """
    groups: Dict[tuple, List[_Entry]] = {}
    for slot, configs in entries:
        groups.setdefault(chain + (_level_key(configs[0]),), []).append(
            (slot, configs)
        )
    missing = {
        key: group[0][1][0] for key, group in groups.items()
        if key not in misses
    }
    tally[0] += len(missing)
    tally[1] += len(groups) - len(missing)
    if missing:
        addrs = top if orig is None else top[orig]
        _replay_levels(missing, addrs, orig, misses)
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
                deeper, top, key, miss_orig, cut, out, misses, tally
            )


def _replay_levels(
    levels: Dict[tuple, CacheConfig],
    addrs: np.ndarray,
    orig: Optional[np.ndarray],
    misses: Dict[tuple, np.ndarray],
) -> None:
    """Replay cold levels on one access stream into ``misses``.

    ``levels`` maps memo keys to the levels' configs; ``orig`` maps
    stream positions to top-level ones (``None`` at L1).  Equal-geometry
    LRU levels share one set partition.
    """
    lru_groups: Dict[Tuple[int, int], List[tuple]] = {}
    for key, config in levels.items():
        if addrs.size == 0:
            misses[key] = np.zeros(0, dtype=np.intp)
        elif config.policy is ReplacementPolicy.LRU:
            lru_groups.setdefault(
                (config.line_bytes, config.num_sets), []
            ).append(key)
        else:
            # One cold exact replay per distinct (sets, ways, policy),
            # with the RNG stream of a fresh Cache (see _simulate_level).
            miss_local = _simulate_level(config, addrs)
            misses[key] = miss_local if orig is None else orig[miss_local]
    for (line_bytes, num_sets), keys in lru_groups.items():
        lines = addrs >> (line_bytes.bit_length() - 1)
        order, bounds = _set_partition(lines, num_sets)
        miss_streams = _lru_miss_streams(
            lines[order], order, bounds,
            sorted({levels[key].associativity for key in keys}),
        )
        for key in keys:
            miss_local = miss_streams[levels[key].associativity]
            misses[key] = miss_local if orig is None else orig[miss_local]


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
    masks: Dict[tuple, np.ndarray],
    tally: _Tally,
) -> None:
    """Replay every wanted ``(stream, tlb)`` key ``masks`` lacks.

    ``stream_of(stream)`` is the address stream a key's TLB translates.
    TLBs are always LRU, so one set partition per (stream, page_bytes,
    num_sets) serves every associativity.
    """
    groups: Dict[tuple, set] = {}
    for key in wanted:
        if key in masks:
            tally[1] += 1
            continue
        tally[0] += 1
        stream, (page_bytes, num_sets, ways) = key
        groups.setdefault((stream, page_bytes, num_sets), set()).add(ways)
    for (stream, page_bytes, num_sets), assocs in groups.items():
        addrs = stream_of(stream)
        n = int(addrs.size)
        if n == 0:
            miss_streams = {ways: np.zeros(0, dtype=np.intp) for ways in assocs}
        else:
            pages = addrs >> (page_bytes.bit_length() - 1)
            order, bounds = _set_partition(pages, num_sets)
            miss_streams = _lru_miss_streams(
                pages[order], order, bounds, sorted(assocs)
            )
        for ways in assocs:
            mask = np.zeros(n, dtype=bool)
            mask[miss_streams[ways]] = True
            masks[(stream, (page_bytes, num_sets, ways))] = mask


def _simulate_tlbs(
    machines: Sequence[MachineConfig],
    data: np.ndarray,
    inst: np.ndarray,
    warm_d: int,
    warm_i: int,
    masks: Dict[tuple, np.ndarray],
    tally: _Tally,
) -> List[Tuple[int, int, int, int, int]]:
    """Per-machine TLB counters for the whole batch.

    Returns ``(dtlb_misses, data_walks, itlb_misses, total_walks,
    last_tlb_misses)`` per machine, matching the scalar oracle's
    ``TlbHierarchy`` (``tests/scalar_uarch.py``) bit-for-bit: data counters
    are post-cut at ``warm_d``, instruction counters post-cut at
    ``warm_i``, and last-level misses keep the reference's asymmetric
    baseline (all instruction-side events, post-cut data-side events).
    ``masks`` is the trace's :attr:`TraceReplays.tlb_masks`.
    """
    sides = {"data": data, "inst": inst}

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
    _replay_tlbs(list(l1_wanted), stream_of, masks, tally)
    _replay_tlbs(list(l2_wanted), stream_of, masks, tally)

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
    ``trace_engine.replay_hits`` those served from ``replays``.
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

    tally: _Tally = [0, 0]
    data_counts: List[List[int]] = [[] for _ in range(n)]
    inst_counts: List[List[int]] = [[] for _ in range(n)]
    _simulate_cache_levels(
        [(i, _machine_chain(m, "l1d")) for i, m in enumerate(machines)],
        data, ("data",), None, warm_d, data_counts, replays.misses, tally,
    )
    _simulate_cache_levels(
        [(i, _machine_chain(m, "l1i")) for i, m in enumerate(machines)],
        inst, ("inst",), None, warm_i, inst_counts, replays.misses, tally,
    )
    tlb_counts = _simulate_tlbs(
        machines, data, inst, warm_d, warm_i, replays.tlb_masks, tally
    )
    mispredicts, taken_count = _simulate_branches(
        machines, sites, taken, warm_b, replays
    )
    _count("trace_engine.replays", tally[0])
    _count("trace_engine.replay_hits", tally[1])

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
