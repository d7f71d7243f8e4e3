"""Parametric machine-config generator for design-space campaigns.

The paper concludes from seven commercial machines (Table IV); campaigns
test those conclusions across *thousands* of synthetic machines sampled
around the Table IV points.  Three properties matter more than raw
variety:

seeded
    Every variant is a pure function of ``(seed, index)`` — sampled
    with a per-index :class:`random.Random` keyed by a sha256 of both —
    so shards can regenerate any slice of the space independently and a
    resumed campaign sees byte-identical machines.

stratified
    Variants round-robin across the anchor machines, so every slice of
    the campaign (and every shard) covers all seven anchors instead of
    exhausting one corner of the space first.

geometry-deduplicated
    A variant never perturbs ``line_bytes`` or ``page_bytes``: its
    *trace geometry* stays its anchor's, so the whole campaign spans
    only the anchors' two distinct trace geometries: the profiler's
    engine table holds two traces per workload, and fused replay gets
    maximal batch sharing.  Structure parameters (sets, ways, TLB
    entries, predictor tables) are drawn from small *discrete* grids,
    which keeps the number of distinct structure geometries per fused
    batch in the tens — the set-partition and per-level replay passes
    are shared across every machine drawing the same value.

Exact duplicates (identical configs up to the name) are redrawn with a
salted stream so the sampled space stays distinct.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.perf.diskcache import content_fingerprint
from repro.uarch.branch import PredictorSpec
from repro.uarch.cache import CacheConfig
from repro.uarch.machine import PAPER_MACHINE_NAMES, MachineConfig, get_machine
from repro.uarch.pipeline import MemoryLatencies
from repro.uarch.tlb import TlbConfig

__all__ = [
    "generate_machines",
    "machines_digest",
    "structure_key",
    "variant_name",
]

# Discrete perturbation grids.  Small on purpose: every distinct value
# multiplies the number of structure geometries a fused batch must
# simulate, and sharing — not variety per se — is what makes a
# 1000-machine campaign cost tens of passes instead of thousands.
_L1_SIZE_FACTORS = (0.5, 1.0, 1.0, 2.0)
_L1_ASSOC_FACTORS = (1, 1, 1, 2)
_L2_SIZE_FACTORS = (0.5, 1.0, 1.0, 2.0)
_LLC_SIZE_FACTORS = (0.5, 1.0, 1.0, 2.0, 4.0)
_TLB_SET_FACTORS = (0.5, 1.0, 1.0, 2.0)
_PREDICTOR_TABLE_FACTORS = (0.5, 1.0, 1.0, 2.0, 4.0)
_PREDICTOR_STRENGTH_JITTER = (-0.05, -0.02, 0.0, 0.0, 0.02)
_PREDICTOR_PENALTY_JITTER = (0.0, 0.0, 1.0, 2.0)
_WIDTH_JITTER = (-1.0, 0.0, 0.0, 1.0)
_FREQUENCY_FACTORS = (0.8, 1.0, 1.0, 1.1, 1.25)
_L2_LATENCY_JITTER = (0.0, 0.0, 1.0, 2.0)
_L3_LATENCY_FACTORS = (1.0, 1.0, 1.15, 1.3)
_MEMORY_LATENCY_FACTORS = (0.85, 1.0, 1.0, 1.2, 1.4)

_REDRAW_LIMIT = 16


def _rng(seed: int, index: int, salt: int = 0) -> random.Random:
    digest = hashlib.sha256(
        f"repro.campaign.generator:{seed}:{index}:{salt}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _resize_cache(
    config: CacheConfig, size_factor: float, assoc_factor: int
) -> CacheConfig:
    """Scale capacity/ways, quantized so the geometry stays valid."""
    associativity = config.associativity * assoc_factor
    quantum = config.line_bytes * associativity
    size = max(quantum, round(config.size_bytes * size_factor / quantum) * quantum)
    return dataclasses.replace(
        config, size_bytes=size, associativity=associativity
    )


def _resize_tlb(config: TlbConfig, set_factor: float) -> TlbConfig:
    """Scale TLB reach by powers of two, keeping sets a power of two."""
    if config.associativity == config.entries:  # fully associative
        entries = max(1, int(config.entries * set_factor))
        return dataclasses.replace(
            config, entries=entries, associativity=entries
        )
    sets = config.num_sets
    new_sets = max(1, int(sets * set_factor))
    return dataclasses.replace(config, entries=new_sets * config.associativity)


def variant_name(index: int, anchor: MachineConfig) -> str:
    """Deterministic registry-style name for one sampled variant."""
    return f"gen-{index:05d}-{anchor.name}"


def _sample_variant(
    index: int, anchor: MachineConfig, rng: random.Random
) -> MachineConfig:
    predictor = anchor.predictor
    table = max(
        1, int(predictor.table_entries * rng.choice(_PREDICTOR_TABLE_FACTORS))
    )
    strength = min(
        1.0,
        max(0.0, predictor.strength + rng.choice(_PREDICTOR_STRENGTH_JITTER)),
    )
    penalty = predictor.mispredict_penalty + rng.choice(
        _PREDICTOR_PENALTY_JITTER
    )
    latencies = anchor.latencies
    l2_latency = latencies.l2 + rng.choice(_L2_LATENCY_JITTER)
    l3_latency = max(
        l2_latency, latencies.l3 * rng.choice(_L3_LATENCY_FACTORS)
    )
    memory_latency = max(
        l3_latency, latencies.memory * rng.choice(_MEMORY_LATENCY_FACTORS)
    )
    return dataclasses.replace(
        anchor,
        name=variant_name(index, anchor),
        description=f"synthetic variant of {anchor.description}",
        frequency_ghz=anchor.frequency_ghz * rng.choice(_FREQUENCY_FACTORS),
        width=max(1.0, anchor.width + rng.choice(_WIDTH_JITTER)),
        l1i=_resize_cache(
            anchor.l1i,
            rng.choice(_L1_SIZE_FACTORS),
            rng.choice(_L1_ASSOC_FACTORS),
        ),
        l1d=_resize_cache(
            anchor.l1d,
            rng.choice(_L1_SIZE_FACTORS),
            rng.choice(_L1_ASSOC_FACTORS),
        ),
        l2=_resize_cache(anchor.l2, rng.choice(_L2_SIZE_FACTORS), 1),
        l3=(
            None
            if anchor.l3 is None
            else _resize_cache(anchor.l3, rng.choice(_LLC_SIZE_FACTORS), 1)
        ),
        itlb=_resize_tlb(anchor.itlb, rng.choice(_TLB_SET_FACTORS)),
        dtlb=_resize_tlb(anchor.dtlb, rng.choice(_TLB_SET_FACTORS)),
        l2tlb=(
            None
            if anchor.l2tlb is None
            else _resize_tlb(anchor.l2tlb, rng.choice(_TLB_SET_FACTORS))
        ),
        predictor=PredictorSpec(
            kind=predictor.kind,
            strength=strength,
            table_entries=table,
            mispredict_penalty=penalty,
        ),
        latencies=MemoryLatencies(
            l2=l2_latency,
            l3=l3_latency,
            memory=memory_latency,
            page_walk=latencies.page_walk,
        ),
    )


def _shape_fingerprint(machine: MachineConfig) -> str:
    """Content identity ignoring the (always unique) name fields."""
    return content_fingerprint(
        dataclasses.replace(machine, name="", description="")
    )


def generate_machines(
    count: int,
    seed: int = 2017,
    anchors: Optional[Sequence[str]] = None,
) -> List[MachineConfig]:
    """Sample ``count`` machine variants around the anchor machines.

    Variant ``i`` depends only on ``(seed, i)`` and the anchor list, so
    any slice of the space can be regenerated independently.
    """
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    anchor_names = tuple(anchors) if anchors else PAPER_MACHINE_NAMES
    anchor_machines = [get_machine(name) for name in anchor_names]
    variants: List[MachineConfig] = []
    seen = set()
    for index in range(count):
        anchor = anchor_machines[index % len(anchor_machines)]
        for salt in range(_REDRAW_LIMIT):
            variant = _sample_variant(index, anchor, _rng(seed, index, salt))
            shape = _shape_fingerprint(variant)
            if shape not in seen:
                break
        seen.add(shape)
        variants.append(variant)
    return variants


def structure_key(machine: MachineConfig) -> Tuple:
    """Sort key grouping machines by shared simulation structure.

    Orders first by trace geometry (which trace the machine replays),
    then by the per-level (sets, ways) geometries and the predictor sim
    key — machines adjacent under this key land in the same executor
    chunks and share set-partition/replay passes inside a fused batch.
    """

    def cache_part(config: Optional[CacheConfig]) -> Tuple[int, int]:
        if config is None:
            return (0, 0)
        return (config.num_sets, config.associativity)

    def tlb_part(config: Optional[TlbConfig]) -> Tuple[int, int]:
        if config is None:
            return (0, 0)
        return (config.num_sets, config.associativity)

    return (
        machine.l1d.line_bytes,
        machine.dtlb.page_bytes,
        cache_part(machine.l1d),
        cache_part(machine.l2),
        cache_part(machine.l3),
        cache_part(machine.l1i),
        tlb_part(machine.dtlb),
        tlb_part(machine.itlb),
        tlb_part(machine.l2tlb),
        machine.predictor.kind,
        machine.predictor.table_entries,
        machine.name,
    )


def machines_digest(machines: Sequence[MachineConfig]) -> str:
    """Order-sensitive content digest of a machine population."""
    digest = hashlib.sha256()
    for machine in machines:
        digest.update(content_fingerprint(machine).encode())
    return digest.hexdigest()
