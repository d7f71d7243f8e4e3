"""Geometry-keyed trace identity and the trace lookup of an owner's table.

A synthesized trace (:mod:`repro.workloads.synthesis`) physically
depends on the workload model, the window length, the base seed and the
(line_bytes, page_bytes) geometry — *not* on which machine replays it.
Historically the synthesis seed also mixed in the machine **name**, so
the 43-workload x 7-machine study re-synthesized ~301 traces even
though the seven paper machines span only two geometries.

This module makes trace identity explicit:

* **Trace seed** — :func:`trace_seed` derives the synthesis seed from
  ``(seed, workload, instructions, line_bytes, page_bytes)``, so every
  machine or design variant sharing a geometry replays *the same*
  trace.  That is the common-random-numbers pairing used by
  design-space studies: baseline and variant see identical streams, so
  speedup rankings carry no synthesis noise.  The pairing comes from
  the seed, not from memoization: a trace synthesized twice is
  bit-identical.

* :func:`get_or_synthesize` — looks a trace up by :func:`trace_key` in
  a caller-owned :data:`TraceTable`, synthesizing it on a miss.  The
  trace engine keeps its traces in the table of the profiler or pool
  worker that runs it, as the analytic engine keeps its quadrature
  rows, so a table lives exactly as long as its owner and a 7-machine
  sweep performs one synthesis per distinct (workload, geometry).
  Stored arrays are read-only, so no replay can alter a trace a later
  call replays again.

* **Replay memo** — each entry (:class:`TraceEntry`) carries the
  trace's :class:`~repro.uarch.fused.TraceReplays` beside it, so a
  later fused batch on the trace replays only the structures no
  earlier batch did; ``len(table)`` still counts traces.  Replays are
  the bulk of an entry, so the executor drops them
  (:func:`release_replays`) after the last chunk its plan sends to the
  trace, and the trace stays.

Observability: every lookup counts ``trace_cache.hit`` or
``trace_cache.miss``; every miss is one synthesis.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Tuple

from repro.obs import metrics as obs_metrics
from repro.perf.diskcache import content_fingerprint
from repro.uarch.fused import TraceReplays
from repro.uarch.machine import MachineConfig
from repro.workloads.spec import WorkloadSpec
from repro.workloads.synthesis import SyntheticTrace, synthesize_trace

__all__ = [
    "TraceEntry",
    "TraceKey",
    "TraceTable",
    "get_or_synthesize",
    "machine_geometry",
    "release_replays",
    "resolve_seed_scope",
    "trace_key",
    "trace_seed",
]

#: A trace identity: ``(workload name, spec fingerprint, instructions,
#: seed, line_bytes, page_bytes)``, as :func:`trace_key` builds it.
TraceKey = Tuple[str, str, int, int, int, int]


class TraceEntry:
    """One table entry: a frozen trace and the replays made on it."""

    __slots__ = ("trace", "replays")

    def __init__(self, trace: SyntheticTrace) -> None:
        self.trace = trace
        self.replays = TraceReplays()


#: Caller-owned synthesized traces by :data:`TraceKey`.  A trace
#: depends only on its key, so one table can serve any number of
#: :func:`get_or_synthesize` calls.
TraceTable = Dict[TraceKey, TraceEntry]


# Kept only for benchmarks/e2e/op.py (_knobs), which records it.
def resolve_seed_scope(scope: None = None) -> str:
    """The trace engine's one trace identity: geometry-shared traces."""
    return "geometry"


def machine_geometry(machine: MachineConfig) -> Tuple[int, int]:
    """The ``(line_bytes, page_bytes)`` pair that shapes a trace."""
    return (machine.l1d.line_bytes, machine.dtlb.page_bytes)


def trace_seed(
    base: int,
    spec: WorkloadSpec,
    machine: MachineConfig,
    instructions: int,
) -> int:
    """The synthesis seed for one profiling call.

    Hashes exactly what determines the trace — base seed, workload,
    window length and (line_bytes, page_bytes) — so equal-geometry
    machines share a seed and hence a trace.
    """
    line_bytes, page_bytes = machine_geometry(machine)
    text = f"{base}:{spec.name}:{instructions}:{line_bytes}:{page_bytes}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def trace_key(
    spec: WorkloadSpec,
    instructions: int,
    seed: int,
    line_bytes: int,
    page_bytes: int,
) -> TraceKey:
    """Table key over everything :func:`synthesize_trace` consumes.

    Keyed by spec *content* (not just its name): two specs sharing a
    name but differing in any profile (input-set perturbations,
    sensitivity sweeps) must never share a trace.
    """
    return (
        spec.name,
        content_fingerprint(spec),
        instructions,
        seed,
        line_bytes,
        page_bytes,
    )


def _freeze(trace: SyntheticTrace) -> SyntheticTrace:
    """Mark every trace array read-only; later replays see it unchanged."""
    for array in (
        trace.data_addresses,
        trace.data_is_store,
        trace.ifetch_addresses,
        trace.branch_sites,
        trace.branch_taken,
    ):
        array.flags.writeable = False
    return trace


def get_or_synthesize(
    table: TraceTable,
    spec: WorkloadSpec,
    instructions: int,
    seed: int,
    line_bytes: int,
    page_bytes: int,
) -> TraceEntry:
    """The entry for this identity in ``table``, synthesized on a miss.

    A synthesized trace is frozen and stored in ``table`` with no
    replays yet, so the table's owner synthesizes each identity once.
    Another thread sharing the table can at worst synthesize a trace
    twice and store a bit-identical one.
    """
    key = trace_key(spec, instructions, seed, line_bytes, page_bytes)
    entry = table.get(key)
    if entry is not None:
        obs_metrics.incr("trace_cache.hit")
        return entry
    obs_metrics.incr("trace_cache.miss")
    # Looked up as this module's global at call time:
    # benchmarks/e2e/op.py counts and times syntheses by wrapping it.
    entry = TraceEntry(
        _freeze(
            synthesize_trace(
                spec,
                instructions,
                seed=seed,
                line_bytes=line_bytes,
                page_bytes=page_bytes,
            )
        )
    )
    table[key] = entry
    return entry


def release_replays(
    table: TraceTable,
    spec: WorkloadSpec,
    machines: Iterable[MachineConfig],
    instructions: int,
    seed: int,
) -> None:
    """Drop the replays held for the traces these machines replay.

    The traces named by ``(spec, instructions, seed)`` and each
    machine's geometry stay in ``table``; their entries start over
    with no replays.
    """
    by_geometry = {machine_geometry(machine): machine for machine in machines}
    for (line_bytes, page_bytes), machine in by_geometry.items():
        entry = table.get(
            trace_key(
                spec,
                instructions,
                trace_seed(seed, spec, machine, instructions),
                line_bytes,
                page_bytes,
            )
        )
        if entry is not None:
            entry.replays.clear()
