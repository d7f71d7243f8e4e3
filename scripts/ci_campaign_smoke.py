"""CI gate — campaign crash-resume byte-identity at 64-machine scale.

Runs the same 64-machine x six-workload campaign twice:

* **straight** — one uninterrupted run;
* **killed-and-resumed** — the same campaign with an
  :class:`~repro.errors.ExecutionError` injected mid-campaign (the
  third shard dies before it lands), then ``resume``d to completion.

The gate passes only if the resumed campaign is **byte-identical** to
the straight one: equal campaign digests (sha256 over every per-pair
report digest in row order) and equal per-column sha256 checksums of
the columnar store, with both stores passing :meth:`verify`.  The
resumed run must also actually resume — the shards that checkpointed
before the kill are skipped, not recomputed.  And the straight run must
stream all of its shards through one set of worker lanes: its
``executor.pool.starts`` counter, read through :mod:`repro.obs`, must
read exactly 1.  Its trace and replay counters (``trace_cache.*``,
``trace_engine.replays``, ``trace_engine.replay_hits``,
``trace_engine.footprint_levels``, ``trace_engine.lru_accesses``) must
equal those of a ``--jobs 1`` run of the same campaign: each batch
keeps its traces and replays in one lane from its first shard to its
last.

Usage (from the repository root)::

    python scripts/ci_campaign_smoke.py [output-dir]

The output directory (default ``./campaign-smoke``) keeps the campaign
directories for artifact upload.
"""

import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro import obs
from repro.campaign import CampaignConfig, CampaignRunner, CampaignStore
from repro.errors import ExecutionError

WORKLOADS = (
    "505.mcf_r",
    "500.perlbench_r",
    "525.x264_r",
    "519.lbm_r",
    "557.xz_r",
    "502.gcc_r",
)

CONFIG = CampaignConfig(
    machines=64,
    workloads=WORKLOADS,
    engine="trace",
    trace_instructions=20_000,
    shard_machines=16,
)

#: The shard that dies before it lands in the killed run (1-based call
#: count; shards 0 and 1 checkpoint first, so resume must skip two).
KILL_AT_CALL = 3

#: Counters a --jobs 2 run must record exactly as --jobs 1 does.
LANE_COUNTERS = (
    "trace_cache.miss",
    "trace_cache.hit",
    "trace_engine.replays",
    "trace_engine.replay_hits",
    "trace_engine.footprint_levels",
    "trace_engine.lru_accesses",
)


def observed_run(directory: Path, jobs: int):
    """One campaign run under :mod:`repro.obs`: (summary, counters)."""
    obs.reset()
    obs.metrics.reset()
    obs.enable()
    try:
        summary = CampaignRunner(directory, config=CONFIG, jobs=jobs).run()
    finally:
        obs.disable()
    return summary, obs.snapshot()["counters"]


def main() -> int:
    """Run the gate; returns a process exit code."""
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "campaign-smoke")
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)

    print(f"campaign-smoke: {CONFIG.machines} machines x "
          f"{len(CONFIG.workloads)} workloads, {CONFIG.n_shards} shards")

    straight, counters = observed_run(root / "straight", jobs=2)
    pool_starts = counters.get("executor.pool.starts", 0)
    print(f"straight: digest {straight['digest'][:16]} "
          f"({straight['shards']['computed']} shards computed, "
          f"{pool_starts:.0f} pool start(s))")
    serial, serial_counters = observed_run(root / "serial", jobs=1)
    lanes = {name: counters.get(name, 0) for name in LANE_COUNTERS}
    in_process = {name: serial_counters.get(name, 0) for name in LANE_COUNTERS}
    print(f"serial:   digest {serial['digest'][:16]} "
          + " ".join(f"{name} {value:.0f}" for name, value in in_process.items()))

    real = CampaignRunner._land_shard
    calls = {"count": 0}

    def crashing(self, *args):
        calls["count"] += 1
        if calls["count"] == KILL_AT_CALL:
            raise ExecutionError("campaign-smoke: injected mid-campaign kill")
        return real(self, *args)

    CampaignRunner._land_shard = crashing
    try:
        CampaignRunner(root / "resumed", config=CONFIG, jobs=2).run()
    except ExecutionError as error:
        print(f"killed:   {error}")
    else:
        print("FAIL: injected kill did not fire")
        return 1
    finally:
        CampaignRunner._land_shard = real

    resumed = CampaignRunner(root / "resumed", jobs=2).run(resume=True)
    print(f"resumed:  digest {resumed['digest'][:16]} "
          f"({resumed['shards']['skipped']} shards skipped, "
          f"{resumed['shards']['computed']} recomputed)")

    failures = []
    if pool_starts != 1:
        failures.append(
            f"straight --jobs 2 run started {pool_starts:.0f} pools, not 1"
        )
    if lanes != in_process:
        failures.append(
            f"--jobs 2 trace and replay counters {lanes} differ from "
            f"--jobs 1's {in_process}"
        )
    if serial["digest"] != straight["digest"]:
        failures.append(
            f"--jobs 1 digest {serial['digest']} differs from --jobs 2's "
            f"{straight['digest']}"
        )
    if resumed["shards"]["skipped"] != KILL_AT_CALL - 1:
        failures.append(
            f"resume recomputed checkpointed shards: expected "
            f"{KILL_AT_CALL - 1} skipped, got {resumed['shards']['skipped']}"
        )
    if resumed["digest"] != straight["digest"]:
        failures.append(
            f"campaign digests diverged: straight {straight['digest']} "
            f"vs resumed {resumed['digest']}"
        )
    if resumed["column_checksums"] != straight["column_checksums"]:
        diverged = sorted(
            metric
            for metric in straight["column_checksums"]
            if straight["column_checksums"][metric]
            != resumed["column_checksums"].get(metric)
        )
        failures.append(f"column checksums diverged: {diverged}")
    for label in ("straight", "resumed"):
        damaged = CampaignStore.open(root / label / "store").verify()
        if damaged:
            failures.append(f"{label} store failed verify: {damaged}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("campaign-smoke: resumed store byte-identical to straight run "
          f"({len(straight['column_checksums'])} columns verified)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
