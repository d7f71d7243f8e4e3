"""Tests for the append-only run-history ledger (repro.obs.history)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import AnalysisError, ConfigurationError
from repro.obs import history


def make_manifest(command="profile", elapsed=1.0, stages=None, **extra):
    manifest = {
        "schema": "repro.obs.manifest/1",
        "version": "1.0.0",
        "command": command,
        "argv": [command, "505.mcf_r", "--obs", "summary"],
        "elapsed_s": elapsed,
        "cpu_s": elapsed / 2,
        "stages": stages or {
            "profile": {"calls": 1, "wall_s": elapsed / 2, "cpu_s": 0.1}
        },
        "metrics": {
            "counters": {"profiler.cache.miss": 1},
            "gauges": {},
            "histograms": {},
        },
    }
    manifest.update(extra)
    return manifest


class TestRecordAndList:
    def test_record_returns_info_and_lists(self, tmp_path):
        info = history.record_run(make_manifest(), tmp_path)
        assert info.seq == 0
        assert info.command == "profile"
        assert info.id.startswith("000000-")
        runs = history.list_runs(tmp_path)
        assert [r.id for r in runs] == [info.id]

    def test_sequence_numbers_increase(self, tmp_path):
        ids = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path).seq
            for i in range(4)
        ]
        assert ids == [0, 1, 2, 3]
        runs = history.list_runs(tmp_path)
        assert [r.seq for r in runs] == [0, 1, 2, 3]

    def test_id_embeds_content_checksum(self, tmp_path):
        manifest = make_manifest()
        info = history.record_run(manifest, tmp_path)
        checksum = history.checksum_manifest(manifest)
        assert info.checksum == checksum
        assert info.id == f"000000-{checksum[:10]}"

    def test_empty_directory_lists_nothing(self, tmp_path):
        assert history.list_runs(tmp_path) == []

    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        history.record_run(make_manifest())
        assert len(history.list_runs()) == 1
        assert (tmp_path / "history").is_dir()

    def test_no_leftover_temp_files(self, tmp_path):
        history.record_run(make_manifest(), tmp_path)
        strays = list((tmp_path / "history").glob(".tmp-*"))
        assert strays == []


class TestLoadAndVerify:
    def test_load_roundtrip(self, tmp_path):
        manifest = make_manifest(elapsed=2.5)
        info = history.record_run(manifest, tmp_path)
        document = history.load_run(info.id, tmp_path)
        assert document["manifest"] == manifest
        assert document["seq"] == 0

    def test_load_detects_tampering(self, tmp_path):
        info = history.record_run(make_manifest(), tmp_path)
        path = history.history_dir(tmp_path) / f"{info.id}.json"
        original = path.read_text()
        for tamper in (
            lambda document: document["manifest"].update(elapsed_s=999.0),
            lambda document: document.update(seq=5),  # disagrees with id
        ):
            document = json.loads(original)
            tamper(document)
            path.write_text(json.dumps(document))
            with pytest.raises(AnalysisError, match="checksum"):
                history.load_run(info.id, tmp_path)

    def test_exact_id_reads_only_its_document(self, tmp_path):
        from repro import obs

        infos = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(3)
        ]
        path = history.history_dir(tmp_path) / f"{infos[0].id}.json"
        path.write_text("{")
        obs.metrics.reset()
        assert history.load_run(infos[2].id, tmp_path)["seq"] == 2
        assert obs.metrics.counter("history.corrupt").value == 0
        # A sequence number resolves against the listing, which
        # verifies every document.
        assert history.load_run("2", tmp_path)["seq"] == 2
        assert obs.metrics.counter("history.corrupt").value == 1

    def test_load_empty_history_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="empty"):
            history.load_run("latest", tmp_path)


class TestNewestFirst:
    """``latest`` and negative offsets read from the newest run down."""

    def _seed(self, tmp_path, n):
        return [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(n)
        ]

    def _count_reads(self, monkeypatch):
        from repro import artifact

        reads = []
        real = artifact.read_json_object

        def counting(path, counter):
            reads.append(Path(path).stem)
            return real(path, counter)

        monkeypatch.setattr(artifact, "read_json_object", counting)
        return reads

    def test_latest_reads_one_document(self, tmp_path, monkeypatch):
        infos = self._seed(tmp_path, 30)
        reads = self._count_reads(monkeypatch)
        assert history.load_run("latest", tmp_path)["id"] == infos[-1].id
        assert reads == [infos[-1].id]
        reads.clear()
        assert history.load_run("-3", tmp_path)["id"] == infos[-3].id
        assert reads == [info.id for info in infos[-1:-4:-1]]

    def test_damaged_newest_runs_are_skipped_and_counted(self, tmp_path):
        from repro import obs

        infos = self._seed(tmp_path, 4)
        for info in infos[-2:]:
            path = history.history_dir(tmp_path) / f"{info.id}.json"
            path.write_text("{ not json")
        obs.metrics.reset()
        assert history.load_run("latest", tmp_path)["id"] == infos[1].id
        assert obs.metrics.counter("history.corrupt").value == 2
        assert history.load_run("-2", tmp_path)["id"] == infos[0].id

    def test_answers_equal_the_listing(self, tmp_path):
        infos = self._seed(tmp_path, 6)
        for info in (infos[1], infos[4]):
            path = history.history_dir(tmp_path) / f"{info.id}.json"
            path.write_text(path.read_text()[:-20])
        runs = history.list_runs(tmp_path)
        assert len(runs) == 4
        for k in range(1, len(runs) + 1):
            expected = history.resolve_run(f"-{k}", runs).id
            assert history.load_run(f"-{k}", tmp_path)["id"] == expected
        with pytest.raises(AnalysisError, match=r"history has 4 runs"):
            history.load_run("-5", tmp_path)

    def test_all_damaged_reads_as_empty(self, tmp_path):
        infos = self._seed(tmp_path, 2)
        for info in infos:
            path = history.history_dir(tmp_path) / f"{info.id}.json"
            path.write_text("")
        with pytest.raises(AnalysisError, match="empty"):
            history.load_run("latest", tmp_path)


class TestResolve:
    def _seed(self, tmp_path, n=3):
        return [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(n)
        ]

    def test_latest_and_offsets(self, tmp_path):
        infos = self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        assert history.resolve_run("latest", runs).id == infos[-1].id
        assert history.resolve_run("-1", runs).id == infos[-1].id
        assert history.resolve_run("-3", runs).id == infos[0].id

    def test_sequence_number(self, tmp_path):
        infos = self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        assert history.resolve_run("1", runs).id == infos[1].id

    def test_id_prefix(self, tmp_path):
        infos = self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        assert history.resolve_run(infos[2].id[:8], runs).id == infos[2].id

    def test_unknown_reference_raises(self, tmp_path):
        self._seed(tmp_path)
        runs = history.list_runs(tmp_path)
        with pytest.raises(AnalysisError):
            history.resolve_run("zzzz", runs)
        with pytest.raises(AnalysisError):
            history.resolve_run("-9", runs)
        with pytest.raises(AnalysisError):
            history.resolve_run("77", runs)


class TestOneWritePerRun:
    def test_record_writes_once_and_list_never(self, tmp_path, monkeypatch):
        from repro import artifact

        writes = []
        real = artifact.atomic_write

        def counting(path, data):
            writes.append(Path(path))
            return real(path, data)

        monkeypatch.setattr(artifact, "atomic_write", counting)
        infos = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(3)
        ]
        assert [path.stem for path in writes] == [info.id for info in infos]
        writes.clear()
        assert [r.id for r in history.list_runs(tmp_path)] == [
            info.id for info in infos
        ]
        history.load_run("latest", tmp_path)
        assert writes == []


class TestDamagedRuns:
    def _seed(self, tmp_path, n=3):
        return [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(n)
        ]

    def test_run_key_off_by_one_character_is_left_out(self, tmp_path):
        from repro import obs

        infos = self._seed(tmp_path)
        path = history.history_dir(tmp_path) / f"{infos[1].id}.json"
        document = json.loads(path.read_text())
        key = document["run_key"]
        document["run_key"] = key[:-1] + ("0" if key[-1] != "0" else "1")
        path.write_text(json.dumps(document, indent=2, sort_keys=True))
        obs.metrics.reset()
        runs = history.list_runs(tmp_path)
        assert [r.id for r in runs] == [infos[0].id, infos[2].id]
        assert obs.metrics.counter("history.corrupt").value == 1
        with pytest.raises(AnalysisError, match="checksum"):
            history.load_run(infos[1].id, tmp_path)

    def test_damaged_newest_run_keeps_its_sequence_number(self, tmp_path):
        infos = self._seed(tmp_path, n=2)
        path = history.history_dir(tmp_path) / f"{infos[1].id}.json"
        path.write_text("{ not json")
        assert [r.seq for r in history.list_runs(tmp_path)] == [0]
        info = history.record_run(make_manifest(elapsed=9.0), tmp_path)
        assert info.seq == 2
        assert [r.seq for r in history.list_runs(tmp_path)] == [0, 2]
        assert history.load_run("latest", tmp_path)["seq"] == 2


#: Two run documents as an earlier release wrote them, beside its
#: ledger index and ``last_manifest.json``.  The ids and run keys are
#: the ones it recorded; the format has not changed since.
PARENT_RUNS = [
    ("000000-adfdd2848a", "6d86dc4349fb", "505.mcf_r", 1.0),
    ("000001-42b0332961", "3ea1b4616ccd", "557.xz_r", 2.0),
]


def _parent_manifest(command, argument, misses):
    return {
        "argv": [command, argument, "--obs", "summary"],
        "command": command,
        "cpu_s": 0,
        "elapsed_s": 0,
        "metrics": {"counters": {"profiler.cache.miss": misses}},
        "schema": "repro.obs.manifest/1",
        "stages": {},
        "version": "1.0.0",
    }


class TestParentLedger:
    def _write(self, directory):
        target = history.history_dir(directory)
        target.mkdir(parents=True)
        index = []
        for seq, (run_id, key, workload, misses) in enumerate(PARENT_RUNS):
            manifest = _parent_manifest("profile", workload, misses)
            checksum = history.checksum_manifest(manifest)
            document = {
                "checksum": checksum,
                "id": run_id,
                "manifest": manifest,
                "run_key": key,
                "schema": "repro.obs.history.run/1",
                "seq": seq,
            }
            (target / f"{run_id}.json").write_text(
                json.dumps(document, indent=2, sort_keys=True)
            )
            index.append({
                "checksum": checksum, "command": "profile",
                "elapsed_s": 0.0, "id": run_id, "run_key": key, "seq": seq,
            })
        # Stale: the index lists only the first run, under another key.
        index = [dict(index[0], run_key="000000000000")]
        (target / "index.json").write_text(json.dumps({
            "next_seq": 1, "runs": index,
            "schema": "repro.obs.history.index/1",
        }, indent=2, sort_keys=True))
        (directory / "last_manifest.json").write_text(json.dumps(
            _parent_manifest("obs-report", "--json", 0.0),
            indent=2, sort_keys=True,
        ))

    def test_stale_index_and_last_manifest_are_ignored(self, tmp_path):
        from repro import obs

        self._write(tmp_path)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*.json")}
        obs.metrics.reset()
        runs = history.list_runs(tmp_path)
        assert [(r.id, r.run_key) for r in runs] == [
            (run_id, key) for run_id, key, _, _ in PARENT_RUNS
        ]
        assert obs.metrics.counter("history.corrupt").value == 0
        newest = history.load_run("latest", tmp_path)["manifest"]
        assert newest == _parent_manifest("profile", "557.xz_r", 2.0)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*.json")} == before
        assert history.record_run(make_manifest(), tmp_path).seq == 2


class _Crash(BaseException):
    """A simulated kill inside :func:`history.prune`."""


class TestPrune:
    def test_prune_keeps_newest(self, tmp_path):
        infos = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(5)
        ]
        removed = history.prune(2, tmp_path)
        assert removed == 3
        runs = history.list_runs(tmp_path)
        assert [r.id for r in runs] == [infos[3].id, infos[4].id]
        files = list(history.history_dir(tmp_path).glob("*-*.json"))
        assert len(files) == 2

    def test_prune_noop_when_under_limit(self, tmp_path):
        history.record_run(make_manifest(), tmp_path)
        assert history.prune(10, tmp_path) == 0
        assert len(history.list_runs(tmp_path)) == 1

    def test_prune_rejects_negative(self, tmp_path):
        with pytest.raises(ConfigurationError):
            history.prune(-1, tmp_path)

    def test_prune_killed_midway_keeps_the_newest_runs(
        self, tmp_path, monkeypatch
    ):
        infos = [
            history.record_run(make_manifest(elapsed=i + 1.0), tmp_path)
            for i in range(3)
        ]
        real = Path.unlink
        calls = []

        def unlink_once(path, *args, **kwargs):
            if calls:
                raise _Crash()
            calls.append(path)
            real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink_once)
        with pytest.raises(_Crash):
            history.prune(0, tmp_path)
        monkeypatch.undo()
        assert [r.id for r in history.list_runs(tmp_path)] == [
            info.id for info in infos[1:]
        ]
        assert history.load_run("latest", tmp_path)["seq"] == 2


class TestRunKey:
    def test_scrub_removes_obs_flags(self):
        argv = [
            "profile", "505.mcf_r", "--obs", "summary",
            "--trace-out", "t.json", "--metrics-out=m.txt",
        ]
        assert history.scrub_argv(argv) == ["profile", "505.mcf_r"]

    def test_key_ignores_obs_flags(self):
        base = history.run_key("profile", ["profile", "505.mcf_r"])
        observed = history.run_key(
            "profile",
            ["profile", "505.mcf_r", "--obs", "json", "--trace-out", "x"],
        )
        assert base == observed

    def test_key_differs_across_workloads(self):
        assert history.run_key("profile", ["profile", "505.mcf_r"]) != \
            history.run_key("profile", ["profile", "541.leela_r"])

    def test_recorded_runs_share_key_across_obs_modes(self, tmp_path):
        first = history.record_run(make_manifest(), tmp_path)
        manifest = make_manifest()
        manifest["argv"] = [
            "profile", "505.mcf_r", "--obs", "json", "--trace-out", "t",
        ]
        second = history.record_run(manifest, tmp_path)
        assert first.run_key == second.run_key
