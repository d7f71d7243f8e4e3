"""Ablation — prefetch coverage across access-pattern classes.

Validates the calibration decision to fold prefetching into each
workload's effective memory-level parallelism: the access-pattern
classes the paper's workloads embody (unit-stride streaming for
lbm/bwaves-style code, long strides for blocked array sweeps, pointer
chasing for mcf/omnetpp) have very different prefetch coverability,
matching the large/small calibrated MLP values.

Note: the trace *synthesizer* reproduces temporal locality (reuse
distances) but not spatial sequentiality, so this ablation drives the
prefetchers with explicit pattern kernels rather than synthesized
workload traces.
"""

import numpy as np

from repro.reporting import Table
from repro.uarch.cache import CacheConfig
from repro.workloads.spec import get_workload
from tests.scalar_uarch import Cache, NextLinePrefetcher, StridePrefetcher

N = 30_000


def _streaming(n):
    """Unit-stride sweep over a large array (lbm/bwaves inner loops)."""
    return (np.arange(n, dtype=np.int64) % 100_000) * 64


def _strided(n):
    """Blocked sweep with a 4-line stride (row-of-matrix walks)."""
    return (np.arange(n, dtype=np.int64) % 50_000) * 256


def _pointer_chase(n, seed=0):
    """Random permutation walk over a large heap (mcf arcs)."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << 22, n) * 64


PATTERNS = {
    "streaming (lbm/bwaves-like)": (_streaming, "519.lbm_r"),
    "strided (blocked sweeps)": (_strided, "554.roms_r"),
    "pointer chase (mcf-like)": (_pointer_chase, "505.mcf_r"),
}


def build(_ignored):
    results = {}
    for label, (generator, exemplar) in PATTERNS.items():
        addresses = generator(N)
        row = {}
        for pf_label, factory in (
            ("next-line", lambda c: NextLinePrefetcher(c, degree=2)),
            ("stride", lambda c: StridePrefetcher(c, degree=4)),
        ):
            cache = Cache(CacheConfig(512 * 64, 64, 8))
            prefetcher = factory(cache)
            for address in addresses:
                prefetcher.access(int(address))
            row[pf_label] = prefetcher.stats
        results[label] = (row, get_workload(exemplar).mlp)
    return results


def test_ablation_prefetch_coverage(run_once):
    results = run_once(build, None)
    table = Table(
        ["access pattern", "next-line coverage", "stride coverage",
         "stride accuracy", "exemplar calibrated MLP"],
        title="Ablation: prefetch coverage vs calibrated effective MLP",
    )
    for label, (row, mlp) in results.items():
        table.add_row([
            label,
            f"{row['next-line'].coverage:.0%}",
            f"{row['stride'].coverage:.0%}",
            f"{row['stride'].accuracy:.0%}",
            mlp,
        ])
    print()
    print(table.render())

    streaming = results["streaming (lbm/bwaves-like)"][0]
    strided = results["strided (blocked sweeps)"][0]
    chasing = results["pointer chase (mcf-like)"][0]
    # Streaming: both prefetchers cover well.
    assert streaming["next-line"].coverage > 0.6
    assert streaming["stride"].coverage > 0.6
    # Strides defeat next-line but not the stride detector.
    assert strided["stride"].coverage > strided["next-line"].coverage + 0.2
    # Pointer chasing defeats both.
    assert chasing["stride"].coverage < 0.1
    assert chasing["next-line"].coverage < 0.1
    # The calibrated effective MLP of the exemplars reflects the same
    # ordering (streaming exemplar >> pointer-chasing exemplar).
    assert results["streaming (lbm/bwaves-like)"][1] > results[
        "pointer chase (mcf-like)"
    ][1]
