"""Concrete trace synthesis from workload models.

The trace-driven engine (:mod:`repro.perf.trace_engine`) needs actual
address and branch streams.  This module synthesizes them from a
:class:`~repro.workloads.spec.WorkloadSpec` such that the streams'
statistical properties match the spec:

* Memory/instruction reuse distances follow the spec's reuse profiles,
  realized through an explicit LRU stack (a reference with distance
  ``d`` re-touches the ``d``-th most recently used distinct line).
* Page-level locality follows the spec's page factors: consecutive new
  lines are packed ``data_page_factor`` to a page, so a random-access
  workload (factor ~1) scatters lines across pages while a streaming
  one (factor ~50) fills pages densely.
* Branch outcomes follow the spec's bias-class mixture, assigned to
  static branch sites.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.constants import AVERAGE_INSTRUCTION_BYTES, TAKEN_LINE_BREAK
from repro.workloads.profiles import ReuseProfile
from repro.workloads.spec import WorkloadSpec

__all__ = ["SyntheticTrace", "synthesize_trace", "synthesize_address_stream"]

#: Reuse distances beyond this stack depth are treated as cold (the
#: synthesizer allocates a fresh line).  Bounds the move-to-front cost.
MAX_STACK_DEPTH = 60_000


@dataclass(frozen=True)
class SyntheticTrace:
    """One synthesized execution window.

    Addresses are byte addresses; ``data_is_store`` parallels
    ``data_addresses``.  Branch ``sites`` are static branch ids usable
    as predictor PCs.
    """

    instructions: int
    data_addresses: np.ndarray
    data_is_store: np.ndarray
    ifetch_addresses: np.ndarray
    branch_sites: np.ndarray
    branch_taken: np.ndarray

    @property
    def data_refs(self) -> int:
        return int(self.data_addresses.size)

    @property
    def branches(self) -> int:
        return int(self.branch_sites.size)


def synthesize_address_stream(
    profile: ReuseProfile,
    n: int,
    rng: np.random.Generator,
    line_bytes: int = 64,
    lines_per_page: float = 16.0,
    page_bytes: int = 4096,
    base_address: int = 0,
) -> np.ndarray:
    """Synthesize byte addresses whose line-reuse follows ``profile``.

    ``lines_per_page`` controls spatial (page-level) locality: that many
    freshly-allocated lines are packed into each page before a new page
    is opened, so the stream's page-distance distribution approximates
    the line-distance distribution compressed by this factor.
    """
    if n < 0:
        raise ConfigurationError(f"n must be >= 0, got {n}")
    distances = profile.sample(rng, n)
    # The loop below works on plain Python scalars: truncating the
    # sampled distances once (int64 truncates toward zero, like int()),
    # keeping line ids in lists and mapping them to addresses once at
    # the end avoids per-element numpy scalar boxing without changing a
    # single value or RNG draw.
    depths = (
        np.where(np.isfinite(distances), distances, float(MAX_STACK_DEPTH + 1))
        .astype(np.int64)
        .tolist()
    )
    stack: list = []  # most-recent line id at the end
    line_addresses: list = []  # address of line id i (ids are dense)
    slots_per_page = page_bytes // line_bytes
    lines_in_page = max(1, min(slots_per_page, int(round(lines_per_page))))
    next_page = base_address // page_bytes
    # Scatter the used line slots across the whole page so that cache
    # set indices stay uniform even when only a few lines per page are
    # touched (page bases are set-aligned for small caches, so packing
    # lines into the first slots would alias them into a few sets).
    page_slots = rng.permutation(slots_per_page)[:lines_in_page].tolist()
    slot_in_page = 0
    ids: list = []  # the line id of each reference
    ids_append = ids.append
    stack_pop = stack.pop
    stack_append = stack.append
    next_line_id = 0
    stack_len = 0  # tracked incrementally; only allocations change it

    for depth in depths:
        depth_in_stack = stack_len - 1 - depth
        if depth_in_stack >= 0:
            # Reuse the line at stack depth `depth` (0 = most recent):
            # move it to the top.  The stack never holds more than
            # MAX_STACK_DEPTH lines, so deeper distances never get here.
            line = stack_pop(depth_in_stack)
            stack_append(line)
        else:
            line = next_line_id
            next_line_id += 1
            # Allocate the new line's address within the current page.
            line_addresses.append(
                next_page * page_bytes + page_slots[slot_in_page] * line_bytes
            )
            slot_in_page += 1
            if slot_in_page >= lines_in_page:
                # Jump to a scattered fresh page (avoids artificial
                # sequential page adjacency for random-access workloads).
                next_page += 1 + int(rng.integers(0, 7))
                page_slots = rng.permutation(slots_per_page)[:lines_in_page].tolist()
                slot_in_page = 0
            stack_append(line)
            stack_len += 1
            if stack_len > MAX_STACK_DEPTH:
                del stack[: stack_len - MAX_STACK_DEPTH]
                stack_len = MAX_STACK_DEPTH
        ids_append(line)
    return np.asarray(line_addresses, dtype=np.int64)[
        np.asarray(ids, dtype=np.intp)
    ]


def synthesize_trace(
    spec: WorkloadSpec,
    instructions: int,
    seed: int = 2017,
    line_bytes: int = 64,
    page_bytes: int = 4096,
) -> SyntheticTrace:
    """Synthesize a trace window for one workload.

    The stream lengths follow the spec's instruction mix; instruction
    fetch is modelled at cache-line granularity (sequential fetch plus
    taken-branch discontinuities), matching the analytic engine.
    """
    if instructions <= 0:
        raise ConfigurationError(f"instructions must be > 0, got {instructions}")
    rng = np.random.default_rng(seed)
    mix = spec.mix

    n_mem = int(round(instructions * mix.memory))
    store_share = mix.store / mix.memory if mix.memory > 0.0 else 0.0
    data_addresses = synthesize_address_stream(
        spec.data_reuse,
        n_mem,
        rng,
        line_bytes=line_bytes,
        lines_per_page=spec.data_page_factor,
        page_bytes=page_bytes,
    )
    data_is_store = rng.random(n_mem) < store_share

    taken_rate = mix.branch * spec.branches.taken_fraction
    ifetch_per_inst = (
        AVERAGE_INSTRUCTION_BYTES / line_bytes + TAKEN_LINE_BREAK * taken_rate
    )
    n_ifetch = int(round(instructions * ifetch_per_inst))
    ifetch_addresses = synthesize_address_stream(
        spec.inst_reuse,
        n_ifetch,
        rng,
        line_bytes=line_bytes,
        lines_per_page=spec.inst_page_factor,
        page_bytes=page_bytes,
        base_address=1 << 40,  # keep code and data in disjoint pages
    )

    n_branch = int(round(instructions * mix.branch))
    # A finite window exercises a hot subset of the static branch sites
    # (otherwise per-site occupancy is too sparse for any predictor to
    # train, which no real steady-state window exhibits).  Target ~100
    # dynamic occurrences per site.
    hot_sites = max(16, min(spec.branches.static_branches, n_branch // 100))
    window_branches = replace(spec.branches, static_branches=hot_sites)
    branch_sites, branch_taken = window_branches.sample_outcomes(rng, n_branch)
    return SyntheticTrace(
        instructions=instructions,
        data_addresses=data_addresses,
        data_is_store=data_is_store,
        ifetch_addresses=ifetch_addresses,
        branch_sites=branch_sites.astype(np.int64),
        branch_taken=branch_taken.astype(bool),
    )
