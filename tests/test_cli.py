"""Tests for the command-line interface."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: Reference output digests of the end-to-end benchmark.
E2E_REFERENCE = Path(__file__).parents[1] / "benchmarks" / "e2e" / "reference.json"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fly"])

    @pytest.mark.parametrize("verb", ["init", "append", "status"])
    def test_analyze_verb_is_gone(self, verb):
        # The campaign fold is the one growing-population analysis;
        # examples/place_your_workload.py places a single workload.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", verb, "store"])


class TestExecutionFlags:
    @pytest.mark.parametrize(
        "verb",
        [
            ["dataset"],
            ["export", "--out", "m.csv"],
            ["profile", "505.mcf_r"],
            ["campaign", "run", "camp"],
            ["campaign", "resume", "camp"],
        ],
    )
    def test_backend_flag_is_gone(self, verb, capsys):
        # --jobs N always runs N worker processes; there is no pool
        # flavour to choose.
        build_parser().parse_args([*verb, "--jobs", "2"])
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                [*verb, "--jobs", "2", "--backend", "thread"]
            )
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestList:
    def test_list_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "cas-WA" in out

    def test_list_suite(self, capsys):
        assert main(["list", "--suite", "rate-int"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "cas-WA" not in out

    def test_list_machines(self, capsys):
        assert main(["list", "--machines"]) == 0
        out = capsys.readouterr().out
        assert "Intel Core i7-6700" in out
        assert "SPARC T4" in out


class TestProfile:
    def test_text_output(self, capsys):
        assert main(["profile", "505.mcf_r"]) == 0
        out = capsys.readouterr().out
        assert "l1d_mpki" in out
        assert "CPI stack" in out

    def test_json_output(self, capsys):
        assert main(["profile", "541.leela_r", "sparc-t4", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "541.leela_r"
        assert data["machine"] == "sparc-t4"

    def test_unknown_workload_is_an_error(self, capsys):
        assert main(["profile", "999.ghost"]) == 1
        assert "error" in capsys.readouterr().err


class TestSubset:
    def test_subset(self, capsys):
        assert main(["subset", "rate-int", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "505.mcf_r" in out
        assert "reduction" in out

    def test_subset_with_validation(self, capsys):
        assert main(["subset", "speed-fp", "--validate"]) == 0
        out = capsys.readouterr().out
        assert "mean error" in out


class TestAnalyses:
    def test_dendrogram(self, capsys):
        assert main(["dendrogram", "speed-int"]) == 0
        out = capsys.readouterr().out
        assert "most distinct: 605.mcf_s" in out

    def test_inputsets(self, capsys):
        assert main(["inputsets", "--category", "int"]) == 0
        out = capsys.readouterr().out
        assert "502.gcc_r" in out

    def test_rate_speed(self, capsys):
        assert main(["rate-speed"]) == 0
        out = capsys.readouterr().out
        assert "638.imagick_s" in out

    def test_balance(self, capsys):
        assert main(["balance"]) == 0
        out = capsys.readouterr().out
        assert "429.mcf" in out

    def test_power(self, capsys):
        assert main(["power"]) == 0
        assert "core power spread" in capsys.readouterr().out

    def test_casestudies(self, capsys):
        assert main(["casestudies"]) == 0
        out = capsys.readouterr().out
        assert "cas-WA" in out and "NOT covered" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity", "branch_prediction"]) == 0
        assert "high:" in capsys.readouterr().out


class TestReportDiskCache:
    def test_report_takes_the_cache_flags_but_not_jobs(self, capsys):
        args = build_parser().parse_args(
            ["report", "--cache-dir", "D", "--no-disk-cache", "--cache-clear"]
        )
        assert (args.cache_dir, args.no_disk_cache, args.cache_clear) == (
            "D", True, True
        )
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["report", "--jobs", "2"])
        assert excinfo.value.code == 2

    def test_warm_report_loads_every_profile_from_disk(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.obs import history

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "obs"))
        cache = tmp_path / "cache"
        # The cold run finds the cache root through the environment, the
        # warm one through the flag: both must reach the same entries.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
        cold_out = tmp_path / "cold.md"
        assert main(["report", "--out", str(cold_out), "--obs", "summary"]) == 0
        cold = history.load_run("latest")["manifest"]["metrics"]["counters"]
        monkeypatch.delenv("REPRO_CACHE_DIR")
        warm_out = tmp_path / "warm.md"
        assert main(["report", "--out", str(warm_out), "--cache-dir",
                     str(cache), "--obs", "summary"]) == 0
        warm = history.load_run("latest")["manifest"]["metrics"]["counters"]

        assert cold_out.read_bytes() == warm_out.read_bytes()
        paper_digest = json.loads(E2E_REFERENCE.read_text())["digests"]["paper"]
        assert hashlib.sha256(warm_out.read_bytes()).hexdigest() == paper_digest
        assert cold.get("profiler.diskcache.hit", 0) == 0
        assert cold["profiler.diskcache.write"] > 0
        assert warm.get("profiler.diskcache.miss", 0) == 0
        assert warm["profiler.diskcache.hit"] == cold["profiler.diskcache.write"]
        # The calibration section reads through the same profiler, so
        # the warm run makes no analytic engine call at all.
        assert warm.get("analytic.batches", 0) == 0


class TestExport:
    def test_export_csv(self, capsys, tmp_path):
        out_file = tmp_path / "matrix.csv"
        assert main(["export", "--suite", "rate-int", "--out", str(out_file)]) == 0
        assert out_file.exists()
        header = out_file.read_text().splitlines()[0]
        assert header.startswith("workload,")


class TestDatasetObservability:
    """PR 2's ``dataset`` subcommand under the obs flags."""

    def test_dataset_obs_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int", "--obs", "json"]) == 0
        out = capsys.readouterr().out
        json_lines = [
            line for line in out.splitlines() if line.startswith("{")
        ]
        parsed = [json.loads(line) for line in json_lines]
        types = {p["type"] for p in parsed}
        assert types == {"span", "metrics"}
        root = next(p for p in parsed if p["type"] == "span")
        assert root["name"] == "repro.dataset"
        names = {c["name"] for c in root["children"]}
        assert "dataset.build_matrix" in names

    def test_dataset_trace_out(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        trace_path = tmp_path / "dataset-trace.json"
        assert main(
            ["dataset", "--suite", "rate-int",
             "--trace-out", str(trace_path)]
        ) == 0
        document = json.loads(trace_path.read_text())
        names = {e["name"] for e in document["traceEvents"]}
        assert "repro.dataset" in names
        # Each workload's machines are profiled as one analytic batch.
        assert "profile.batch" in names
        assert "engine.analytic" in names

    def test_dataset_obs_records_history(self, capsys, tmp_path, monkeypatch):
        from repro.obs import history

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--obs", "summary"]) == 0
        runs = history.list_runs()
        assert len(runs) == 1
        assert runs[0].command == "dataset"

    def test_dataset_metrics_out(self, capsys, tmp_path, monkeypatch):
        from repro.obs import openmetrics

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        metrics_path = tmp_path / "metrics.txt"
        assert main(
            ["dataset", "--suite", "rate-int",
             "--metrics-out", str(metrics_path)]
        ) == 0
        families = openmetrics.parse_openmetrics(metrics_path.read_text())
        assert "repro_profiler_cache_miss" in families
        assert any(f.startswith("repro_stage_wall") for f in families)


class TestObsVerbs:
    """``repro obs {history,diff,check}`` and ``obs-report --json``."""

    def _observe(self, monkeypatch, tmp_path, times=1):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        for _ in range(times):
            assert main(["profile", "505.mcf_r", "--obs", "summary"]) == 0

    def test_history_lists_runs(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "history"]) == 0
        out = capsys.readouterr().out
        assert out.count("profile") == 2
        assert "000000-" in out and "000001-" in out

    def test_history_json_and_prune(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=3)
        capsys.readouterr()
        assert main(["obs", "history", "--prune", "2", "--json"]) == 0
        out = capsys.readouterr().out
        runs = json.loads(out[out.index("["):])
        assert len(runs) == 2
        assert runs[0]["seq"] == 1

    def test_history_limit_zero_lists_no_runs(self, capsys, tmp_path,
                                              monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "history", "--limit", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        assert main(["obs", "history", "--limit", "0"]) == 0
        assert capsys.readouterr().out == ""
        assert main(["obs", "history", "--limit", "1", "--json"]) == 0
        (newest,) = json.loads(capsys.readouterr().out)
        assert newest["seq"] == 1

    def test_history_empty_is_not_an_error(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["obs", "history"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_observed_commands_leave_only_run_documents(
        self, capsys, tmp_path, monkeypatch
    ):
        self._observe(monkeypatch, tmp_path, times=2)
        assert main(["obs", "history"]) == 0
        assert main(["obs-report", "--obs", "summary"]) == 0
        files = sorted(
            path.relative_to(tmp_path).as_posix()
            for path in tmp_path.rglob("*") if path.is_file()
        )
        assert len(files) == 2
        for name in files:
            assert re.fullmatch(r"history/\d{6}-[0-9a-f]{10}\.json", name)

    def test_damaged_run_is_left_out_with_one_warning(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.obs import history

        self._observe(monkeypatch, tmp_path, times=2)
        first = history.list_runs()[0]
        (history.history_dir() / f"{first.id}.json").write_text("{")
        capsys.readouterr()
        assert main(["obs", "history"]) == 0
        captured = capsys.readouterr()
        assert first.id not in captured.out
        assert "000001-" in captured.out
        warnings = [
            line for line in captured.err.splitlines()
            if line.startswith("warning:")
        ]
        assert len(warnings) == 1

    def test_diff_two_runs(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "diff", "-2", "-1"]) == 0
        out = capsys.readouterr().out
        assert "diff 000000-" in out
        assert "(total)" in out

    def test_check_passes_on_self_baseline(self, capsys, tmp_path,
                                           monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "check"]) == 0
        out = capsys.readouterr().out
        assert "no regressions" in out

    def test_check_single_run_is_vacuously_ok(self, capsys, tmp_path,
                                              monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs", "check"]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_check_empty_history_is_an_error(self, capsys, tmp_path,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["obs", "check"]) == 1
        assert "error" in capsys.readouterr().err

    def test_check_flags_injected_slowdown(self, capsys, tmp_path,
                                           monkeypatch):
        from repro.obs import history

        self._observe(monkeypatch, tmp_path, times=2)
        # Inject a synthetic 10x slowdown as a third recorded run.
        manifest = history.load_run("latest")["manifest"]
        for entry in manifest["stages"].values():
            entry["wall_s"] *= 10
        manifest["elapsed_s"] *= 10
        history.record_run(manifest)
        capsys.readouterr()
        assert main(["obs", "check"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "profile" in out  # the regressed stage is named

    def test_each_command_evaluates_its_own_quadrature_rows(
        self, capsys, tmp_path, monkeypatch
    ):
        # The row table lives as long as the command's profiler, so a
        # repeated command in one process repeats its engine work (and
        # stays comparable for `obs check`).
        from repro.obs import history
        from repro.workloads.spec import all_workloads

        all_workloads()
        quadratures = []
        for _ in range(2):
            self._observe(monkeypatch, tmp_path)
            manifest = history.load_run("latest")["manifest"]
            counters = manifest["metrics"]["counters"]
            quadratures.append(counters.get("analytic.quadratures", 0))
        assert quadratures[0] == quadratures[1] > 0

    def test_check_json_output(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=2)
        capsys.readouterr()
        assert main(["obs", "check", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["run"].startswith("000001-")

    def test_check_ignores_other_run_keys(self, capsys, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["profile", "505.mcf_r", "--obs", "summary"]) == 0
        assert main(["profile", "541.leela_r", "--obs", "summary"]) == 0
        capsys.readouterr()
        # The leela run has no prior leela runs: vacuously ok, the
        # mcf run is not a comparable baseline.
        assert main(["obs", "check"]) == 0
        assert "nothing to compare" in capsys.readouterr().out

    def test_profile_flag_records_profile_in_manifest(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--profile", "cpu"]) == 0
        out = capsys.readouterr().out
        assert "digest:" in out
        assert "--- obs: profiled" in out
        from repro.obs import history

        run = history.load_run("latest")
        profile = run["manifest"]["profile"]
        assert profile["mode"] == "cpu"
        assert profile["sample_count"] == sum(profile["samples"].values())

    def test_profile_only_runs_baseline_a_traced_run(
        self, capsys, tmp_path, monkeypatch
    ):
        # --profile alone opens no span, so its runs record the
        # profiling session's wall time: a traced run of the same run
        # key is then scored against real elapsed times, not zeros.
        from repro.obs import history

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        for _ in range(2):
            assert main(["dataset", "--suite", "rate-int",
                         "--profile", "cpu"]) == 0
        assert main(["dataset", "--suite", "rate-int",
                     "--obs", "summary"]) == 0
        runs = history.list_runs()
        assert len({run.run_key for run in runs}) == 1
        for run in runs[:2]:
            manifest = history.load_run(run.id)["manifest"]
            assert manifest["elapsed_s"] == manifest["profile"]["duration_s"]
            assert manifest["elapsed_s"] > 0
        capsys.readouterr()
        # A zero baseline scores this run at z > +80; the raised
        # threshold keeps that verdict but not a ~50 ms run's jitter.
        assert main(["obs", "check", "--z-threshold", "10"]) == 0, (
            capsys.readouterr().out
        )

    def test_obs_flame_renders_from_ledger(self, capsys, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int",
                     "--profile", "all"]) == 0
        capsys.readouterr()
        out_html = tmp_path / "flame.html"
        out_collapsed = tmp_path / "stacks.txt"
        assert main(["obs", "flame", "--out", str(out_html),
                     "--collapsed", str(out_collapsed)]) == 0
        message = capsys.readouterr().out
        assert "wrote flamegraph" in message
        html = out_html.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "samples" in html
        collapsed = out_collapsed.read_text()
        assert collapsed  # one "stack count" line per distinct stack
        for line in collapsed.splitlines():
            assert line.rsplit(" ", 1)[1].isdigit()

    def test_obs_flame_without_profile_data_errors(self, capsys, tmp_path,
                                                   monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs", "flame"]) == 1
        assert "--profile" in capsys.readouterr().err

    def test_obs_top_lists_spans_and_frames(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert main(["dataset", "--suite", "rate-int", "--obs", "summary",
                     "--profile", "all"]) == 0
        capsys.readouterr()
        assert main(["obs", "top", "-n", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 span series" in out
        assert "dataset.build_matrix" in out
        assert "top 3 frames" in out
        assert "self" in out

    def test_obs_report_json(self, capsys, tmp_path, monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs-report", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "profile"
        assert "stages" in manifest and "metrics" in manifest

    def test_obs_report_of_truncated_manifest_fails_cleanly(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.obs import history

        self._observe(monkeypatch, tmp_path, times=1)
        newest = history.list_runs()[-1]
        path = history.history_dir() / f"{newest.id}.json"
        path.write_bytes(path.read_bytes()[:40])
        capsys.readouterr()
        assert main(["obs-report"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "warning:" in err

    def test_manifest_has_span_duration_percentiles(self, capsys, tmp_path,
                                                    monkeypatch):
        self._observe(monkeypatch, tmp_path, times=1)
        capsys.readouterr()
        assert main(["obs-report", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        histograms = manifest["metrics"]["histograms"]
        # Instruments zeroed by a run-boundary reset stay registered, so
        # only populated histograms carry percentile estimates.
        span_hists = [
            name for name, stats in histograms.items()
            if name.startswith("span.") and stats["count"]
        ]
        assert span_hists
        for name in span_hists:
            assert histograms[name]["p50"] is not None
            assert histograms[name]["p99"] is not None


class TestAnalysisModeFlag:
    def test_subset_output_is_identical_in_both_modes(
        self, capsys, monkeypatch
    ):
        # A stale REPRO_ANALYSIS, even an invalid value, must leave the
        # output unchanged.
        monkeypatch.delenv("REPRO_ANALYSIS", raising=False)
        assert main(["subset", "rate-int", "-k", "3"]) == 0
        plain = capsys.readouterr().out
        for value in ("batch", "incremental", "nope"):
            monkeypatch.setenv("REPRO_ANALYSIS", value)
            assert main(["subset", "rate-int", "-k", "3"]) == 0
            assert capsys.readouterr().out == plain

    def test_invalid_flag_value_is_rejected_by_argparse(self):
        # No verb takes --analysis, whatever its value.
        for verb in (
            ["subset", "rate-int"],
            ["dendrogram", "rate-int"],
            ["campaign", "run", "camp"],
            ["campaign", "resume", "camp"],
            ["campaign", "fold", "camp"],
        ):
            for value in ("batch", "incremental"):
                with pytest.raises(SystemExit):
                    build_parser().parse_args([*verb, "--analysis", value])
