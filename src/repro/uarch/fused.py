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
from the same generator a fresh :class:`~repro.uarch.cache.Cache` owns.

Miss streams propagate level by level: a level's misses, in stream
order, form the next level's access stream — so machines sharing an
(sets, ways[, policy]) prefix share every pass of that prefix and split
only where their hierarchies diverge.

This is the trace engine's only replay path.  The scalar per-access
simulators of :mod:`repro.uarch` are the reference oracle: the test
suite replays randomized machine batches through both and requires
bit-identical counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.uarch.branch import predictor_table_entries
from repro.uarch.cache import CacheConfig, ReplacementPolicy
from repro.uarch.kernels import BranchTables, _group_by_set, _simulate_level
from repro.uarch.machine import MachineConfig

__all__ = [
    "resolve_replay",
    "FusedCounts",
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


def _postcut_count(miss_orig: np.ndarray, cut: int) -> int:
    return int(miss_orig.size) - int(np.searchsorted(miss_orig, cut))


def _simulate_cache_levels(
    entries: List[_Entry],
    addrs: np.ndarray,
    orig: Optional[np.ndarray],
    cut: int,
    out: List[List[int]],
) -> None:
    """Replay one level for every entry sharing ``addrs``, then recurse.

    Appends this level's post-cut miss count to ``out[slot]`` for every
    entry, groups equal-geometry levels into one shared pass, and
    descends into the next level with the (shared) miss stream.
    ``orig`` maps stream positions to top-level indices (``None`` at
    the top); ``cut`` is the top-level warm-up index.
    """
    if not entries:
        return
    if addrs.size == 0:
        for slot, configs in entries:
            out[slot].extend([0] * len(configs))
        return
    lru_groups: Dict[Tuple[int, int], List[_Entry]] = {}
    exact_groups: Dict[tuple, List[_Entry]] = {}
    for slot, configs in entries:
        cfg = configs[0]
        if cfg.policy is ReplacementPolicy.LRU:
            key = (cfg.line_bytes, cfg.num_sets)
            lru_groups.setdefault(key, []).append((slot, configs))
        else:
            exact_key = (
                cfg.line_bytes, cfg.num_sets, cfg.associativity, cfg.policy,
            )
            exact_groups.setdefault(exact_key, []).append((slot, configs))
    for (line_bytes, num_sets), group in lru_groups.items():
        lines = addrs >> (line_bytes.bit_length() - 1)
        order, bounds = _set_partition(lines, num_sets)
        by_assoc: Dict[int, List[_Entry]] = {}
        for slot, configs in group:
            by_assoc.setdefault(configs[0].associativity, []).append(
                (slot, configs)
            )
        miss_streams = _lru_miss_streams(
            lines[order], order, bounds, sorted(by_assoc)
        )
        for assoc, sub in by_assoc.items():
            _descend(sub, addrs, miss_streams[assoc], orig, cut, out)
    for _exact_key, group in exact_groups.items():
        # One cold exact replay per distinct (sets, ways, policy), with
        # the RNG stream of a fresh Cache (see _simulate_level).
        miss_local = _simulate_level(group[0][1][0], addrs)
        _descend(group, addrs, miss_local, orig, cut, out)


def _descend(
    group: List[_Entry],
    addrs: np.ndarray,
    miss_local: np.ndarray,
    orig: Optional[np.ndarray],
    cut: int,
    out: List[List[int]],
) -> None:
    miss_orig = miss_local if orig is None else orig[miss_local]
    count = _postcut_count(miss_orig, cut)
    deeper: List[_Entry] = []
    for slot, configs in group:
        out[slot].append(count)
        if len(configs) > 1:
            deeper.append((slot, configs[1:]))
    if deeper:
        _simulate_cache_levels(deeper, addrs[miss_local], miss_orig, cut, out)


def _machine_chain(machine: MachineConfig, first_level: str) -> List[CacheConfig]:
    configs = [getattr(machine, first_level), machine.l2]
    if machine.l3 is not None:
        configs.append(machine.l3)
    return configs


# ---------------------------------------------------------------------------
# TLBs
# ---------------------------------------------------------------------------


def _tlb_miss_masks(
    addrs: np.ndarray, groups: Dict[Tuple[int, int], set]
) -> Dict[Tuple[int, int, int], np.ndarray]:
    """Per-access L1-style TLB miss masks for every requested geometry.

    ``groups`` maps ``(page_bytes, num_sets)`` to the set of
    associativities needed; one depth pass per (page_bytes, num_sets)
    serves every associativity (TLBs are always LRU).  Returns miss
    masks keyed by ``(page_bytes, num_sets, associativity)``.
    """
    masks: Dict[Tuple[int, int, int], np.ndarray] = {}
    n = int(addrs.size)
    for (page_bytes, num_sets), assocs in groups.items():
        if n == 0:
            for assoc in assocs:
                masks[(page_bytes, num_sets, assoc)] = np.zeros(0, dtype=bool)
            continue
        pages = addrs >> (page_bytes.bit_length() - 1)
        order, bounds = _set_partition(pages, num_sets)
        miss_streams = _lru_miss_streams(
            pages[order], order, bounds, sorted(assocs)
        )
        for assoc in assocs:
            mask = np.zeros(n, dtype=bool)
            mask[miss_streams[assoc]] = True
            masks[(page_bytes, num_sets, assoc)] = mask
    return masks


def _tlb_config_key(config) -> Tuple[int, int, int]:
    return (config.page_bytes, config.num_sets, config.associativity)


def _simulate_tlbs(
    machines: Sequence[MachineConfig],
    data: np.ndarray,
    inst: np.ndarray,
    warm_d: int,
    warm_i: int,
) -> List[Tuple[int, int, int, int, int]]:
    """Per-machine TLB counters for the whole batch.

    Returns ``(dtlb_misses, data_walks, itlb_misses, total_walks,
    last_tlb_misses)`` per machine, matching the scalar
    :class:`~repro.uarch.tlb.TlbHierarchy` bit-for-bit: data counters
    are post-cut at ``warm_d``, instruction counters post-cut at
    ``warm_i``, and last-level misses keep the reference's asymmetric
    baseline (all instruction-side events, post-cut data-side events).
    """
    d_groups: Dict[Tuple[int, int], set] = {}
    i_groups: Dict[Tuple[int, int], set] = {}
    for machine in machines:
        pb, ns, assoc = _tlb_config_key(machine.dtlb)
        d_groups.setdefault((pb, ns), set()).add(assoc)
        pb, ns, assoc = _tlb_config_key(machine.itlb)
        i_groups.setdefault((pb, ns), set()).add(assoc)
    d_masks = _tlb_miss_masks(data, d_groups)
    i_masks = _tlb_miss_masks(inst, i_groups)

    # Second-level passes are shared by (L1 geometry -> stream identity,
    # L2 geometry -> partition identity); unified L2 TLBs see the data
    # miss stream followed by the instruction miss stream on one
    # structure, exactly like TlbHierarchy's data-then-instruction
    # translate order.
    unified: Dict[tuple, set] = {}
    split_d: Dict[tuple, set] = {}
    split_i: Dict[tuple, set] = {}
    for machine in machines:
        l2 = machine.l2tlb
        if l2 is None:
            continue
        dk = _tlb_config_key(machine.dtlb)
        ik = _tlb_config_key(machine.itlb)
        l2_geom = (l2.page_bytes, l2.num_sets)
        if machine.unified_l2tlb:
            unified.setdefault((dk, ik) + l2_geom, set()).add(l2.associativity)
        else:
            split_d.setdefault((dk,) + l2_geom, set()).add(l2.associativity)
            split_i.setdefault((ik,) + l2_geom, set()).add(l2.associativity)

    def _l2_masks(
        groups: Dict[tuple, set], streams: Dict[tuple, np.ndarray]
    ) -> Dict[tuple, np.ndarray]:
        out: Dict[tuple, np.ndarray] = {}
        for key, assocs in groups.items():
            stream = streams[key]
            page_bytes, num_sets = key[-2], key[-1]
            if stream.size == 0:
                for assoc in assocs:
                    out[key + (assoc,)] = np.zeros(0, dtype=bool)
                continue
            pages = stream >> (page_bytes.bit_length() - 1)
            order, bounds = _set_partition(pages, num_sets)
            miss_streams = _lru_miss_streams(
                pages[order], order, bounds, sorted(assocs)
            )
            for assoc in assocs:
                mask = np.zeros(stream.size, dtype=bool)
                mask[miss_streams[assoc]] = True
                out[key + (assoc,)] = mask
        return out

    unified_streams = {
        key: np.concatenate(
            (data[d_masks[key[0]]], inst[i_masks[key[1]]])
        )
        for key in unified
    }
    split_d_streams = {key: data[d_masks[key[0]]] for key in split_d}
    split_i_streams = {key: inst[i_masks[key[0]]] for key in split_i}
    unified_masks = _l2_masks(unified, unified_streams)
    split_d_masks = _l2_masks(split_d, split_d_streams)
    split_i_masks = _l2_masks(split_i, split_i_streams)

    results: List[Tuple[int, int, int, int, int]] = []
    for machine in machines:
        dk = _tlb_config_key(machine.dtlb)
        ik = _tlb_config_key(machine.itlb)
        d_mask = d_masks[dk]
        i_mask = i_masks[ik]
        dtlb_misses = int(np.count_nonzero(d_mask[warm_d:]))
        itlb_misses = int(np.count_nonzero(i_mask[warm_i:]))
        l2 = machine.l2tlb
        if l2 is None:
            # Every L1 miss walks; last-level misses are the L1 misses
            # themselves (post-cut data, all instruction).
            data_walks = dtlb_misses
            inst_walks_postcut = itlb_misses
            last_tlb_misses = dtlb_misses + int(np.count_nonzero(i_mask))
        else:
            l2_geom = (l2.page_bytes, l2.num_sets)
            d_pos = np.flatnonzero(d_mask)
            i_pos = np.flatnonzero(i_mask)
            if machine.unified_l2tlb:
                walk = unified_masks[(dk, ik) + l2_geom + (l2.associativity,)]
                nd = int(d_pos.size)
                d_walk_pos = d_pos[walk[:nd]]
                i_walk_pos = i_pos[walk[nd:]]
            else:
                d_walk_pos = d_pos[
                    split_d_masks[(dk,) + l2_geom + (l2.associativity,)]
                ]
                i_walk_pos = i_pos[
                    split_i_masks[(ik,) + l2_geom + (l2.associativity,)]
                ]
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
) -> Tuple[List[int], int]:
    """Per-machine mispredict counts plus the shared taken count.

    One :class:`~repro.uarch.kernels.BranchTables` serves the batch,
    so each distinct predictor table is replayed once per trace.
    """
    measured = branch_taken[warm_b:]
    taken_count = int(np.count_nonzero(measured))
    tables = BranchTables(branch_sites, branch_taken)
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
    # replay, so a lost share of branch work shows up as a series.
    obs_metrics.incr("trace_engine.branch_tables", len(tables.predictions))
    return mispredicts, taken_count


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
    """
    data = np.ascontiguousarray(data_addresses, dtype=np.int64)
    inst = np.ascontiguousarray(ifetch_addresses, dtype=np.int64)
    sites = np.ascontiguousarray(branch_sites, dtype=np.int64)
    taken = np.ascontiguousarray(branch_taken, dtype=bool)
    n = len(machines)
    warm_d = int(data.size * warmup_fraction)
    warm_i = int(inst.size * warmup_fraction)
    warm_b = int(sites.size * warmup_fraction)

    data_counts: List[List[int]] = [[] for _ in range(n)]
    inst_counts: List[List[int]] = [[] for _ in range(n)]
    _simulate_cache_levels(
        [(i, _machine_chain(m, "l1d")) for i, m in enumerate(machines)],
        data, None, warm_d, data_counts,
    )
    _simulate_cache_levels(
        [(i, _machine_chain(m, "l1i")) for i, m in enumerate(machines)],
        inst, None, warm_i, inst_counts,
    )
    tlb_counts = _simulate_tlbs(machines, data, inst, warm_d, warm_i)
    mispredicts, taken_count = _simulate_branches(
        machines, sites, taken, warm_b
    )

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
