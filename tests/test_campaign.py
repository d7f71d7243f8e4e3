"""Campaign engine tests: generator, columnar store, runner, crash-resume, fold."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from tests.parity import reference_fold
from repro import artifact, obs
from repro.campaign import (
    CampaignConfig,
    CampaignRunner,
    CampaignStore,
    generate_machines,
    machines_digest,
    pair_digest,
    structure_key,
)
from repro.campaign.runner import _SHARD_SCHEMA
from repro.errors import ConfigurationError, ExecutionError
from repro.perf.counters import SIMILARITY_METRICS
from repro.uarch.machine import PAPER_MACHINE_NAMES, get_machine


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()


# ----------------------------------------------------------------------
# generator
# ----------------------------------------------------------------------


class TestGenerator:
    def test_deterministic_and_slice_regenerable(self):
        population = generate_machines(30, seed=7)
        assert population == generate_machines(30, seed=7)
        # Variant i depends only on (seed, i): any prefix regenerates.
        assert generate_machines(12, seed=7) == population[:12]

    def test_seed_changes_the_population(self):
        assert machines_digest(generate_machines(10, seed=1)) != (
            machines_digest(generate_machines(10, seed=2))
        )

    def test_stratified_round_robin_over_anchors(self):
        population = generate_machines(21)
        for index, machine in enumerate(population):
            anchor = PAPER_MACHINE_NAMES[index % len(PAPER_MACHINE_NAMES)]
            assert machine.name == f"gen-{index:05d}-{anchor}"

    def test_trace_geometry_is_never_perturbed(self):
        for machine in generate_machines(40):
            anchor = get_machine(machine.name.split("-", 2)[2])
            assert machine.l1d.line_bytes == anchor.l1d.line_bytes
            assert machine.dtlb.page_bytes == anchor.dtlb.page_bytes

    def test_variants_are_valid_machine_configs(self):
        # MachineConfig/CacheConfig/TlbConfig validation runs inside
        # dataclasses.replace; 200 draws covering every anchor must
        # construct without a ConfigurationError.
        population = generate_machines(200)
        assert len(population) == 200
        for machine in population:
            assert machine.width >= 1.0
            assert machine.latencies.l2 <= machine.latencies.l3
            assert machine.latencies.l3 <= machine.latencies.memory

    def test_shapes_are_distinct(self):
        import dataclasses

        population = generate_machines(100)
        shapes = {
            repr(dataclasses.replace(m, name="", description=""))
            for m in population
        }
        assert len(shapes) == 100

    def test_structure_key_groups_by_trace_geometry_first(self):
        population = sorted(generate_machines(50), key=structure_key)
        geometries = [
            (m.l1d.line_bytes, m.dtlb.page_bytes) for m in population
        ]
        # Sorted by structure key, each trace geometry is contiguous.
        seen = []
        for geometry in geometries:
            if geometry not in seen:
                seen.append(geometry)
        assert geometries == sorted(geometries, key=seen.index)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(ConfigurationError):
            generate_machines(0)


# ----------------------------------------------------------------------
# columnar store
# ----------------------------------------------------------------------


def _make_store(root, machines=3, workloads=2, metrics=("cpi", "l1d_mpki")):
    return CampaignStore.create(
        root,
        [f"m{i}" for i in range(machines)],
        [f"w{i}" for i in range(workloads)],
        list(metrics),
    )


class TestStore:
    def test_create_preallocates_nan_columns(self, tmp_path):
        store = _make_store(tmp_path / "store")
        assert store.rows == 6
        assert store.landed_rows() == 0
        for metric in store.metrics:
            column = store.column(metric)
            assert column.shape == (6,)
            assert np.isnan(column).all()

    def test_roundtrip_rows_and_blocks(self, tmp_path):
        store = _make_store(tmp_path / "store")
        values = np.arange(8, dtype=np.float64).reshape(4, 2)
        store.write_rows(2, values)
        reopened = CampaignStore.open(tmp_path / "store")
        assert reopened.machines == store.machines
        assert reopened.landed_rows() == 4
        np.testing.assert_array_equal(
            reopened.column("cpi")[2:6], values[:, 0]
        )
        # machine 1 owns rows 2..3 (machine-major, 2 workloads); its
        # feature row is that block raveled workload-major.
        matrix = reopened.machine_matrix()
        assert matrix.shape == (3, 4)
        assert np.isnan(matrix[0]).all()
        np.testing.assert_array_equal(matrix[1], values[:2, :].ravel())
        np.testing.assert_array_equal(matrix[2], values[2:, :].ravel())
        assert reopened.row_of(1, 1) == 3

    def test_reads_are_memory_mapped(self, tmp_path):
        store = _make_store(tmp_path / "store")
        assert isinstance(store.column("cpi"), np.memmap)

    def test_seal_digest_verify(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.write_rows(0, np.ones((6, 2)))
        with pytest.raises(ConfigurationError):
            store.verify()  # unsealed
        checksums = store.seal()
        assert set(checksums) == {"cpi", "l1d_mpki"}
        reopened = CampaignStore.open(tmp_path / "store")
        assert reopened.verify() == []
        assert reopened.digest() == store.digest()

    def test_verify_flags_damaged_columns(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.write_rows(0, np.ones((6, 2)))
        store.seal()
        column = np.lib.format.open_memmap(
            store.column_path("cpi"), mode="r+"
        )
        column[0] = 99.0
        column.flush()
        del column
        assert CampaignStore.open(tmp_path / "store").verify() == ["cpi"]

    def test_open_rejects_tampered_schema(self, tmp_path):
        _make_store(tmp_path / "store")
        schema_path = tmp_path / "store" / "schema.json"
        text = schema_path.read_text()
        document = json.loads(text)
        document["machines"].append("intruder")
        for tampered in (
            json.dumps(document),  # checksum no longer matches
            text[: len(text) // 2],  # truncated mid-write
            json.dumps([document]),  # valid JSON, not an object
        ):
            schema_path.write_text(tampered)
            with pytest.raises(ConfigurationError):
                CampaignStore.open(tmp_path / "store")

    def test_write_rejects_bad_shapes(self, tmp_path):
        store = _make_store(tmp_path / "store")
        with pytest.raises(ConfigurationError):
            store.write_rows(0, np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            store.write_rows(5, np.ones((2, 2)))

    def test_unknown_column_raises(self, tmp_path):
        store = _make_store(tmp_path / "store")
        with pytest.raises(ConfigurationError):
            store.column("nonexistent")


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


def _config(**overrides) -> CampaignConfig:
    base = dict(
        machines=8,
        workloads=("505.mcf_r", "557.xz_r"),
        engine="analytic",
        trace_instructions=20_000,
        shard_machines=3,
        clusters=3,
    )
    base.update(overrides)
    return CampaignConfig(**base)


class TestConfig:
    def test_roundtrips_through_dict(self):
        config = _config()
        assert CampaignConfig.from_dict(config.to_dict()) == config

    def test_fingerprint_tracks_result_affecting_fields(self):
        assert _config().fingerprint() == _config().fingerprint()
        assert _config(seed=1).fingerprint() != _config().fingerprint()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _config(machines=0)
        with pytest.raises(ConfigurationError):
            _config(workloads=())
        with pytest.raises(ConfigurationError):
            _config(engine="quantum")
        with pytest.raises(ConfigurationError):
            _config(trace_instructions=0)
        with pytest.raises(ConfigurationError):
            _config(shard_machines=0)

    def test_shard_count_rounds_up(self):
        assert _config(machines=8, shard_machines=3).n_shards == 3
        assert _config(machines=9, shard_machines=3).n_shards == 3


class TestRunner:
    def test_run_lands_every_row_and_seals(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", config=_config())
        summary = runner.run()
        assert summary["shards"] == {"total": 3, "computed": 3, "skipped": 0}
        assert summary["rows"] == 16
        store = CampaignStore.open(tmp_path / "camp" / "store")
        assert store.landed_rows() == 16
        assert store.verify() == []
        assert len(store.metrics) == len(SIMILARITY_METRICS)
        assert summary["digest"] is not None
        assert summary["analysis"]["machines_analyzed"] == 8

    def test_only_the_process_backend_name_is_accepted(self, tmp_path):
        # backend= survives only for the end-to-end benchmark's call.
        CampaignRunner(tmp_path / "camp", config=_config(), backend="process")
        with pytest.raises(ConfigurationError):
            CampaignRunner(tmp_path / "camp", config=_config(), backend="thread")
        assert not (tmp_path / "camp").exists()

    def test_resume_skips_completed_shards_with_identical_digest(
        self, tmp_path
    ):
        first = CampaignRunner(tmp_path / "camp", config=_config()).run()
        second = CampaignRunner(tmp_path / "camp").run(resume=True)
        assert second["shards"] == {"total": 3, "computed": 0, "skipped": 3}
        assert second["digest"] == first["digest"]
        assert second["column_checksums"] == first["column_checksums"]

    def test_analytic_digest_is_the_same_in_pool_workers(self, tmp_path):
        # In-process chunks share the profiler's row table; each pool
        # chunk fills a fresh one of its own.
        summaries = [
            CampaignRunner(tmp_path / f"jobs{jobs}", config=_config(),
                           jobs=jobs).run()
            for jobs in (1, 2)
        ]
        assert summaries[0]["digest"] == summaries[1]["digest"]
        assert (summaries[0]["column_checksums"]
                == summaries[1]["column_checksums"])

    def test_fresh_run_refuses_existing_campaign(self, tmp_path):
        CampaignRunner(tmp_path / "camp", config=_config()).run()
        with pytest.raises(ConfigurationError, match="already exists"):
            CampaignRunner(tmp_path / "camp", config=_config()).run()

    def test_resume_rejects_divergent_config(self, tmp_path):
        CampaignRunner(tmp_path / "camp", config=_config()).run()
        divergent = CampaignRunner(tmp_path / "camp", config=_config(seed=3))
        with pytest.raises(ConfigurationError, match="disagrees"):
            divergent.run(resume=True)

    def test_resume_of_nothing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="resume"):
            CampaignRunner(tmp_path / "ghost").run(resume=True)

    def test_mismatched_profiler_is_rejected(self, tmp_path):
        from repro.perf.profiler import Profiler

        runner = CampaignRunner(
            tmp_path / "camp",
            config=_config(),
            profiler=Profiler(engine="trace", trace_instructions=20_000),
        )
        with pytest.raises(ConfigurationError, match="disagree"):
            runner.run()

    def test_status_reports_progress(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", config=_config())
        runner.run()
        status = CampaignRunner(tmp_path / "camp").status()
        assert status["shards"]["done"] == 3
        assert status["shards"]["pending"] == []
        assert status["rows"] == {
            "total": 16, "checkpointed": 16, "landed": 16,
        }
        assert status["sealed"] is True
        assert status["analyzed"] is True

    def test_shard_manifests_checkpoint_pair_digests(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", config=_config())
        runner.run()
        manifest = artifact.read_checksummed(
            tmp_path / "camp" / "shards" / "shard-0000.json", _SHARD_SCHEMA,
            "campaign.corrupt",
        )
        assert manifest is not None
        assert manifest["rows"] == 6  # 3 machines x 2 workloads
        assert len(manifest["pair_digests"]) == 6
        assert all(len(d) == 64 for d in manifest["pair_digests"])

    def test_damaged_shard_manifest_forces_recompute(self, tmp_path):
        config = _config()
        CampaignRunner(tmp_path / "camp", config=config).run()
        shard_path = tmp_path / "camp" / "shards" / "shard-0001.json"
        shard_path.write_text(shard_path.read_text().replace("pairs", "XXXX"))
        summary = CampaignRunner(tmp_path / "camp").run(resume=True)
        assert summary["shards"]["computed"] == 1
        assert summary["shards"]["skipped"] == 2

    def test_fold_needs_two_complete_machines(self, tmp_path):
        runner = CampaignRunner(
            tmp_path / "camp", config=_config(machines=2, shard_machines=1)
        )
        from repro.workloads.spec import get_workload

        runner._run_generate(
            runner.config,
            [get_workload(name) for name in runner.config.workloads],
        )
        with pytest.raises(ConfigurationError, match="at least two"):
            runner.fold()

    def test_shard_ledger_recording(self, tmp_path):
        runner = CampaignRunner(
            tmp_path / "camp",
            config=_config(machines=3, shard_machines=3),
            ledger=True,
            ledger_dir=tmp_path / "obs",
        )
        runner.run()
        from repro.obs import history

        runs = history.list_runs(directory=tmp_path / "obs")
        assert len(runs) == 1
        assert runs[0].command == "campaign-shard"

    def test_pair_digest_is_content_sensitive(self, tmp_path):
        from repro.perf.profiler import Profiler

        profiler = Profiler()
        one = profiler.profile("505.mcf_r", "skylake-i7-6700")
        two = profiler.profile("505.mcf_r", "sparc-t4")
        assert pair_digest(one) == pair_digest(one)
        assert pair_digest(one) != pair_digest(two)


# ----------------------------------------------------------------------
# crash-resume (the ISSUE's satellite: kill mid-shard, resume, compare)
# ----------------------------------------------------------------------


class TestCrashResume:
    def test_resume_after_midshard_crash_is_byte_identical(
        self, tmp_path, monkeypatch
    ):
        config = _config()

        # Uninterrupted reference run in its own directory.
        reference = CampaignRunner(tmp_path / "ref", config=config).run()

        # Crash the second shard through the ExecutionError path.
        real = CampaignRunner._profile_shard
        calls = {"n": 0}

        def crashing(self, profiler, pairs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise ExecutionError("injected mid-campaign crash")
            return real(self, profiler, pairs)

        monkeypatch.setattr(CampaignRunner, "_profile_shard", crashing)
        crashed = CampaignRunner(tmp_path / "camp", config=config)
        with pytest.raises(ExecutionError, match="injected"):
            crashed.run()
        monkeypatch.setattr(CampaignRunner, "_profile_shard", real)

        # The first shard survived as a checkpoint; the rest did not.
        status = CampaignRunner(tmp_path / "camp").status()
        assert status["shards"]["done"] == 1
        assert status["shards"]["pending"] == [1, 2]
        assert status["digest"] is None

        # Resume completes the campaign without recomputing shard 0.
        resumed = CampaignRunner(tmp_path / "camp").run(resume=True)
        assert resumed["shards"]["skipped"] == 1
        assert resumed["shards"]["computed"] == 2

        # Byte-identical to the uninterrupted run: same campaign digest
        # and the same sha256 for every column file.
        assert resumed["digest"] == reference["digest"]
        assert resumed["column_checksums"] == reference["column_checksums"]
        store = CampaignStore.open(tmp_path / "camp" / "store")
        assert store.verify() == []
        assert (tmp_path / "camp" / "analysis.json").read_bytes() == (
            tmp_path / "ref" / "analysis.json"
        ).read_bytes()
        assert resumed["analysis"] == reference_fold(
            store, config.clusters, config.seed
        )

    def test_crash_before_any_checkpoint_degrades_to_fresh_run(
        self, tmp_path, monkeypatch
    ):
        config = _config(machines=3, shard_machines=3)

        def crashing(self, profiler, pairs):
            raise ExecutionError("dies immediately")

        monkeypatch.setattr(CampaignRunner, "_profile_shard", crashing)
        with pytest.raises(ExecutionError):
            CampaignRunner(tmp_path / "camp", config=config).run()
        monkeypatch.undo()

        resumed = CampaignRunner(tmp_path / "camp").run(resume=True)
        assert resumed["shards"]["computed"] == 1
        assert resumed["digest"] is not None


class TestDamagedSealedStore:
    """One bit flipped in a sealed column is never read or re-sealed."""

    def _damage(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", config=_config())
        runner.run()
        store = CampaignStore.open(runner.store_dir)
        metric = store.metrics[3]
        path = store.column_path(metric)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # exponent bit of the last row's value
        path.write_bytes(bytes(blob))
        return runner, store, metric

    def test_fold_raises_naming_the_column(self, tmp_path, capsys):
        from repro.cli import main

        runner, _store, metric = self._damage(tmp_path)
        analysis = (runner.directory / "analysis.json").read_bytes()
        with pytest.raises(ConfigurationError, match=re.escape(metric)):
            CampaignRunner(runner.directory).fold()
        assert main(["campaign", "fold", str(runner.directory)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and metric in err
        assert (runner.directory / "analysis.json").read_bytes() == analysis
        assert obs.metrics.counter("campaign.corrupt").value >= 1

    def test_resume_raises_and_leaves_the_seal(self, tmp_path, capsys):
        from repro.cli import main

        runner, store, metric = self._damage(tmp_path)
        with pytest.raises(ConfigurationError, match=re.escape(metric)):
            CampaignRunner(runner.directory).run(resume=True)
        assert main(["campaign", "resume", str(runner.directory)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and metric in err
        reopened = CampaignStore.open(runner.store_dir)
        assert reopened.checksums == store.checksums
        assert reopened.verify() == [metric]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCampaignCli:
    def test_run_status_resume_fold(self, tmp_path, capsys):
        from repro.cli import main

        directory = str(tmp_path / "camp")
        base = [
            "campaign", "run", directory,
            "--machines", "6", "--shard-machines", "3",
            "--workloads", "505.mcf_r,557.xz_r",
            "--engine", "analytic", "--clusters", "3",
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "3 computed" not in first  # 6 machines / 3 = 2 shards
        assert "2 computed, 0 skipped of 2" in first

        assert main(["campaign", "status", directory, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["shards"]["done"] == 2
        assert status["sealed"] is True

        assert main(["campaign", "resume", directory]) == 0
        resumed = capsys.readouterr().out
        assert "0 computed, 2 skipped of 2" in resumed

        assert main(["campaign", "fold", directory, "--json"]) == 0
        analysis = json.loads(capsys.readouterr().out)
        assert analysis["machines_analyzed"] == 6

    def test_run_with_zero_jobs_creates_nothing(self, tmp_path, capsys):
        # Rejected before the first write, so a retry with a valid
        # --jobs starts a fresh campaign instead of demanding resume.
        from repro.cli import main

        directory = tmp_path / "camp"
        argv = ["campaign", "run", str(directory), "--machines", "3",
                "--workloads", "505.mcf_r", "--engine", "analytic"]
        assert main(argv + ["--jobs", "0"]) == 1
        assert "error:" in capsys.readouterr().err
        assert not directory.exists()
        assert main(argv + ["--jobs", "1"]) == 0

    def test_status_of_missing_campaign_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["campaign", "status", str(tmp_path / "none")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_status_of_corrupt_store_schema_fails_cleanly(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        runner = CampaignRunner(tmp_path / "camp", config=_config())
        runner.run()
        schema_path = runner.store_dir / "schema.json"
        schema_path.write_text(schema_path.read_text()[:40])
        assert main(["campaign", "status", str(runner.directory)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "corrupt store schema" in err


# ----------------------------------------------------------------------
# the fold: one exact fit, held to the batch oracle in tests/parity.py
# ----------------------------------------------------------------------


def _land_shards(runner, config, shards):
    """Profile the given shards into a generated store; no fold."""
    from repro.perf.profiler import Profiler
    from repro.workloads.spec import get_workload

    specs = [get_workload(name) for name in config.workloads]
    machines, store = runner._run_generate(config, specs)
    profiler = Profiler()
    for index in shards:
        runner._run_shard(config, profiler, specs, machines, store, index)
    return store


def _tree(directory):
    """Every file under ``directory`` with its bytes."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


class TestFold:
    def test_first_fold_matches_the_batch_oracle(self, tmp_path):
        config = _config()
        runner = CampaignRunner(tmp_path / "camp", config=config)
        document = runner.run()["analysis"]
        oracle = reference_fold(
            CampaignStore.open(runner.store_dir), config.clusters, config.seed
        )
        assert oracle["machines_analyzed"] == 8
        assert document == oracle
        assert json.loads(
            (runner.directory / "analysis.json").read_text()
        ) == oracle
        assert sorted(p.name for p in runner.directory.iterdir()) == [
            "analysis.json", "campaign.json", "shards", "store",
        ]

    def test_fold_after_more_shards_matches_the_oracle(self, tmp_path):
        config = _config(machines=40, shard_machines=16)
        runner = CampaignRunner(tmp_path / "camp", config=config)
        store = _land_shards(runner, config, [0])
        assert runner.fold() == reference_fold(
            store, config.clusters, config.seed
        )
        _land_shards(runner, config, [1, 2])
        document = runner.fold()
        assert document["machines_analyzed"] == 40
        assert document == reference_fold(store, config.clusters, config.seed)

    def test_fold_reads_each_store_column_once(self, tmp_path, monkeypatch):
        config = _config()
        runner = CampaignRunner(tmp_path / "camp", config=config)
        store = _land_shards(runner, config, range(config.n_shards))
        reads = []
        column = CampaignStore.column

        def counted(self, metric):
            reads.append(metric)
            return column(self, metric)

        monkeypatch.setattr(CampaignStore, "column", counted)
        assert runner.fold()["machines_analyzed"] == config.machines
        assert sorted(reads) == sorted(store.metrics)

    def test_fold_skips_machines_with_any_unlanded_cell(self, tmp_path):
        # write_rows lands a block one column at a time, so a writer
        # killed between columns leaves a machine landed in some
        # metrics only; the fold must not analyze it.
        config = _config()
        runner = CampaignRunner(tmp_path / "camp", config=config)
        store = _land_shards(runner, config, range(config.n_shards))
        column = np.lib.format.open_memmap(
            store.column_path(store.metrics[-1]), mode="r+"
        )
        column[store.row_of(7, 1)] = np.nan
        column.flush()
        del column
        document = runner.fold()
        assert document["machines_analyzed"] == 7
        assert not any(store.machines[7] in c for c in document["clusters"])

    @pytest.mark.parametrize("value", ["batch", "nope"])
    def test_stale_analysis_environment_leaves_the_fold_unchanged(
        self, tmp_path, monkeypatch, value
    ):
        config = _config()
        plain = CampaignRunner(tmp_path / "plain", config=config)
        expected = plain.run()["analysis"]
        monkeypatch.setenv("REPRO_ANALYSIS", value)
        stale = CampaignRunner(tmp_path / "stale", config=config)
        assert stale.run()["analysis"] == expected
        assert (stale.directory / "analysis.json").read_bytes() == (
            plain.directory / "analysis.json"
        ).read_bytes()

    def test_repeat_fold_rewrites_identical_bytes(self, tmp_path):
        runner = CampaignRunner(tmp_path / "camp", config=_config())
        first = runner.run()["analysis"]
        before = _tree(runner.directory)
        assert runner.fold() == first
        # Only analysis.json is rewritten, with the same bytes.
        assert _tree(runner.directory) == before

    def test_midcampaign_fold_then_completion_match_the_oracle(
        self, tmp_path
    ):
        config = _config()
        runner = CampaignRunner(tmp_path / "camp", config=config)
        store = _land_shards(runner, config, [0, 1])
        partial = runner.fold()
        assert partial["machines_analyzed"] == 6
        assert partial == reference_fold(store, config.clusters, config.seed)
        _land_shards(runner, config, [2])
        final = runner.fold()
        assert final["machines_analyzed"] == 8
        assert final == reference_fold(store, config.clusters, config.seed)
        assert not (runner.directory / "incremental").exists()


# ----------------------------------------------------------------------
# names the frozen end-to-end benchmark (benchmarks/e2e/op.py) reaches
# ----------------------------------------------------------------------


class TestResolveAnalysisMode:
    def test_defaults_to_incremental(self, monkeypatch):
        # A constant: a stale REPRO_ANALYSIS selects nothing.
        from repro.stats.incremental import resolve_analysis_mode

        monkeypatch.setenv("REPRO_ANALYSIS", "batch")
        assert resolve_analysis_mode() == "incremental"
        assert resolve_analysis_mode(None) == "incremental"

    def test_feature_store_wrapper_target_is_never_reached(self):
        # op.py wraps FeatureMatrixStore.append_machine_block in traced
        # ops; no fold calls it (every fold test above would raise).
        from repro.core.feature_store import FeatureMatrixStore

        with pytest.raises(NotImplementedError):
            FeatureMatrixStore().append_machine_block("m0", np.zeros(2))
