"""Tests for the observability layer (spans, metrics, export, manifest).

Covers the contracts DESIGN.md promises: span nesting and attributes,
cross-thread counter aggregation, the zero-cost no-op path, structural
validity of the Chrome-trace export, and manifest determinism under a
fixed injectable clock.  Also hosts the repo lint that keeps bare
``print()`` calls out of library code.
"""

from __future__ import annotations

import ast
import itertools
import json
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.obs import export as obs_export
from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs.progress import Progress, set_heartbeat_hook
from repro.obs.trace import Clock, _NULL_SPAN


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with obs disabled and empty."""
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    set_heartbeat_hook(None)
    yield
    obs.disable()
    obs.reset(clock=Clock())
    obs.metrics.reset()
    set_heartbeat_hook(None)


def fixed_clock(step: float = 1.0) -> Clock:
    """A deterministic clock advancing by ``step`` per reading."""
    wall = itertools.count()
    cpu = itertools.count()
    return Clock(
        wall=lambda: next(wall) * step, cpu=lambda: next(cpu) * step / 2
    )


class TestSpans:
    def test_nesting_and_attributes(self):
        obs.enable(clock=fixed_clock())
        with obs.span("outer", suite="rate-int") as outer:
            with obs.span("inner") as inner:
                inner.set(k=3)
        obs.disable()
        roots = obs.finished_roots()
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "outer"
        assert root.attributes == {"suite": "rate-int"}
        assert [c.name for c in root.children] == ["inner"]
        assert root.children[0].attributes == {"k": 3}

    def test_timing_from_injected_clock(self):
        obs.enable(clock=fixed_clock(step=1.0))
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        # Readings: outer cpu/wall start, inner cpu/wall start, inner
        # wall/cpu end, outer wall/cpu end -> inner wall = 1, outer = 3.
        roots = obs.finished_roots()
        assert roots[0].wall_time == pytest.approx(3.0)
        assert roots[0].children[0].wall_time == pytest.approx(1.0)

    def test_sibling_roots(self):
        obs.enable(clock=fixed_clock())
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        assert [r.name for r in obs.finished_roots()] == ["first", "second"]

    def test_current_span(self):
        obs.enable(clock=fixed_clock())
        assert obs.current_span() is None
        with obs.span("outer"):
            assert obs.current_span().name == "outer"
        assert obs.current_span() is None

    def test_walk_and_to_dict(self):
        obs.enable(clock=fixed_clock())
        with obs.span("a"):
            with obs.span("b"):
                pass
            with obs.span("c"):
                pass
        root = obs.finished_roots()[0]
        assert [s.name for s in root.walk()] == ["a", "b", "c"]
        data = root.to_dict()
        assert data["name"] == "a"
        assert [c["name"] for c in data["children"]] == ["b", "c"]
        json.dumps(data)  # must be serializable

    def test_spans_from_threads_are_separate_roots(self):
        obs.enable(clock=fixed_clock())

        def work(tag):
            with obs.span("thread-root", tag=tag):
                with obs.span("child"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = obs.finished_roots()
        assert len(roots) == 4
        assert all(len(r.children) == 1 for r in roots)


class TestNoOpMode:
    def test_span_is_shared_null_object(self):
        assert obs.span("anything", k=1) is _NULL_SPAN
        assert obs.span("other") is _NULL_SPAN

    def test_null_span_supports_set(self):
        with obs.span("anything") as s:
            s.set(k=1)
        assert obs.finished_roots() == []

    def test_gated_metrics_helpers_do_nothing(self):
        obs.incr("some.counter", 5)
        obs.set_gauge("some.gauge", 2.0)
        obs.observe("some.histogram", 1.0)
        snapshot = obs.snapshot()
        assert "some.counter" not in snapshot["counters"]
        assert "some.gauge" not in snapshot["gauges"]
        assert "some.histogram" not in snapshot["histograms"]

    def test_progress_is_silent(self, capsys):
        ticker = Progress("loop", total=100)
        for _ in range(100):
            ticker.advance()
        ticker.close()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestMetrics:
    def test_counter_aggregation_across_threads(self):
        counter = obs_metrics.counter("test.threads")
        per_thread, n_threads = 10_000, 8

        def work():
            for _ in range(per_thread):
                counter.add()

        threads = [
            threading.Thread(target=work) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == per_thread * n_threads

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            obs_metrics.Counter("x").add(-1)

    def test_gauge_last_value_wins(self):
        gauge = obs_metrics.gauge("test.gauge")
        gauge.set(3.0)
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_histogram_summary(self):
        hist = obs_metrics.histogram("test.hist")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 3
        assert summary["sum"] == 6.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0
        # Bucketed percentile estimates: within a bucket width, ordered,
        # and clamped to the observed range.
        assert 1.0 <= summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] <= 3.0
        # Only non-empty buckets are stored, counts sum to n.
        assert sum(count for _, count in summary["buckets"]) == 3
        json.dumps(summary)

    def test_histogram_percentiles_single_value(self):
        hist = obs_metrics.Histogram("h")
        for _ in range(100):
            hist.observe(0.25)
        assert hist.percentile(0.5) == pytest.approx(0.25)
        assert hist.percentile(0.99) == pytest.approx(0.25)

    def test_histogram_percentiles_spread(self):
        hist = obs_metrics.Histogram("h")
        values = [i / 100.0 for i in range(1, 101)]  # 0.01 .. 1.00
        for v in values:
            hist.observe(v)
        # Log-spaced buckets give ~±1 bucket width accuracy.
        assert hist.percentile(0.5) == pytest.approx(0.5, rel=0.5)
        assert hist.percentile(0.95) == pytest.approx(0.95, rel=0.3)
        assert hist.percentile(0.0) is not None
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_histogram_empty_percentile_is_none(self):
        hist = obs_metrics.Histogram("h")
        assert hist.percentile(0.5) is None
        assert hist.summary()["p50"] is None

    def test_histogram_overflow_bucket(self):
        hist = obs_metrics.Histogram("h", bounds=(1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5000.0)
        pairs = hist.bucket_counts()
        assert pairs == [(1.0, 1), (None, 1)]

    def test_histogram_reset_clears_buckets(self):
        hist = obs_metrics.Histogram("h")
        hist.observe(1.0)
        hist.reset()
        assert hist.summary()["buckets"] == []
        assert hist.percentile(0.5) is None

    def test_snapshot_is_sorted_and_serializable(self):
        obs.enable(clock=fixed_clock())
        obs.incr("b.counter")
        obs.incr("a.counter", 2)
        snapshot = obs.snapshot()
        assert list(snapshot["counters"]) == sorted(snapshot["counters"])
        json.dumps(snapshot)

    def test_registry_reset_keeps_handles_live(self):
        counter = obs_metrics.counter("test.reset")
        counter.add(5)
        obs.metrics.reset()
        assert counter.value == 0
        counter.add(1)
        assert obs.snapshot()["counters"]["test.reset"] == 1

    def test_snapshot_omits_instruments_untouched_since_reset(self):
        # Handles survive a reset, but names written only *before* the
        # reset must not haunt later snapshots as zero-valued series
        # (two stale names can even sanitize to one OpenMetrics family
        # and render an invalid exposition).
        obs_metrics.counter("test.zombie").add(3)
        obs_metrics.gauge("test.zombie.gauge").set(7)
        obs_metrics.histogram("test.zombie.hist").observe(0.5)
        obs.metrics.reset()
        obs_metrics.counter("test.alive").add(1)
        snapshot = obs.snapshot()
        assert "test.zombie" not in snapshot["counters"]
        assert "test.zombie.gauge" not in snapshot["gauges"]
        assert "test.zombie.hist" not in snapshot["histograms"]
        assert snapshot["counters"] == {"test.alive": 1}

    def test_snapshot_keeps_explicitly_written_zeros(self):
        # A zero *written* after the reset is a real observation —
        # only never-touched instruments are filtered.
        obs_metrics.gauge("test.stalled").set(0)
        obs_metrics.counter("test.zero").add(0)
        snapshot = obs.snapshot()
        assert snapshot["gauges"]["test.stalled"] == 0.0
        assert snapshot["counters"]["test.zero"] == 0.0


class TestProgress:
    def test_heartbeat_hook_receives_bounded_ticks(self):
        beats = []
        set_heartbeat_hook(lambda label, done, total: beats.append(done))
        ticker = Progress("sweep", total=1000, ticks=10)
        for _ in range(1000):
            ticker.advance()
        assert beats[-1] == 1000
        assert len(beats) <= 11

    def test_small_loops_emit_every_step(self):
        beats = []
        set_heartbeat_hook(lambda label, done, total: beats.append(done))
        ticker = Progress("tiny", total=3)
        for _ in range(3):
            ticker.advance()
        assert beats == [1, 2, 3]


class TestChromeTrace:
    def _roots(self):
        obs.enable(clock=fixed_clock())
        with obs.span("root", suite="rate-int"):
            with obs.span("child", k=3):
                pass
        obs.disable()
        return obs.finished_roots()

    def test_event_schema(self):
        events = obs_export.spans_to_events(self._roots())
        assert len(events) == 2
        for event in events:
            assert set(event) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"
            }
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["args"], dict)

    def test_file_is_loadable_json(self, tmp_path):
        path = obs_export.write_chrome_trace(
            tmp_path / "trace.json", self._roots(), obs.snapshot()
        )
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        assert document["displayTimeUnit"] == "ms"
        names = {e["name"] for e in document["traceEvents"]}
        assert names == {"root", "child"}

    def test_empty_trace(self):
        assert obs_export.spans_to_events([]) == []
        assert obs_export.chrome_trace_document([])["traceEvents"] == []


class TestRender:
    def test_span_tree_collapses_repeats(self):
        obs.enable(clock=fixed_clock())
        with obs.span("root"):
            for _ in range(5):
                with obs.span("profile", workload="x"):
                    pass
        rendered = obs_export.render_span_tree(obs.finished_roots())
        assert "profile x5" in rendered
        assert rendered.count("profile") == 1

    def test_span_tree_expanded_mode(self):
        obs.enable(clock=fixed_clock())
        with obs.span("root"):
            for _ in range(3):
                with obs.span("profile"):
                    pass
        rendered = obs_export.render_span_tree(
            obs.finished_roots(), collapse=False
        )
        assert rendered.count("profile") == 3

    def test_metrics_rendering(self):
        obs.enable(clock=fixed_clock())
        obs.incr("c", 2)
        obs.set_gauge("g", 1.5)
        obs.observe("h", 4.0)
        rendered = obs_export.render_metrics(obs.snapshot())
        assert "c" in rendered and "g" in rendered and "n=1" in rendered

    def test_jsonl_lines_parse(self):
        obs.enable(clock=fixed_clock())
        with obs.span("a"):
            pass
        with obs.span("b"):
            pass
        obs.incr("c")
        lines = obs_export.spans_to_jsonl(
            obs.finished_roots(), obs.snapshot()
        ).splitlines()
        parsed = [json.loads(line) for line in lines]
        assert [p["type"] for p in parsed] == ["span", "span", "metrics"]


class TestManifest:
    def _run(self):
        obs.metrics.reset()
        obs.enable(clock=fixed_clock())
        with obs.span("repro.subset"):
            with obs.span("similarity.profile"):
                obs.incr("profiler.cache.miss", 70)
            with obs.span("subset.select"):
                pass
        obs.disable()
        return obs_manifest.build_manifest(
            "subset",
            ["subset", "rate-int", "--obs", "summary"],
            obs.finished_roots(),
            obs.snapshot(),
            seed=2017,
            engine="analytic",
        )

    def test_contents(self):
        manifest = self._run()
        assert manifest["command"] == "subset"
        assert manifest["version"]
        assert manifest["seed"] == 2017
        assert manifest["engine"] == "analytic"
        assert set(manifest["stages"]) == {
            "similarity.profile", "subset.select"
        }
        assert manifest["metrics"]["counters"]["profiler.cache.miss"] == 70

    def test_deterministic_under_fixed_clock(self):
        first = self._run()
        obs.reset()
        second = self._run()
        assert first == second
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_write_load_render_roundtrip(self, tmp_path):
        from repro.obs import history

        manifest = self._run()
        info = history.record_run(manifest, tmp_path)
        document = history.load_run("latest", tmp_path)
        assert document["id"] == info.id
        loaded = document["manifest"]
        assert loaded == manifest
        rendered = obs_manifest.render_manifest(loaded)
        assert "subset" in rendered
        assert "similarity.profile" in rendered

    def test_load_missing_manifest_raises(self, tmp_path):
        from repro.errors import AnalysisError
        from repro.obs import history

        with pytest.raises(AnalysisError):
            history.load_run("latest", tmp_path / "nowhere")

    def test_env_var_controls_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / "envdir"))
        assert obs_manifest.manifest_dir() == tmp_path / "envdir"


class TestProfilerIntegration:
    def test_cache_info_counts_hits_and_misses(self):
        from repro.perf.profiler import Profiler

        profiler = Profiler()
        profiler.profile("505.mcf_r", "skylake-i7-6700")
        profiler.profile("505.mcf_r", "skylake-i7-6700")
        info = profiler.cache_info()
        assert info.hits == 1
        assert info.disk_hits == 0
        assert info.misses == 1
        assert info.size == 1
        assert info.hit_rate == 0.5
        profiler.clear_cache()
        assert profiler.cache_info() == (0, 0, 0, 0)

    def test_registry_counters_track_when_enabled(self):
        from repro.perf.profiler import Profiler

        obs.enable(clock=fixed_clock())
        profiler = Profiler()
        profiler.profile("505.mcf_r", "skylake-i7-6700")
        profiler.profile("505.mcf_r", "skylake-i7-6700")
        counters = obs.snapshot()["counters"]
        assert counters["profiler.cache.miss"] == 1
        assert counters["profiler.cache.hit"] == 1

    def test_pipeline_produces_named_stage_spans(self):
        from repro.core.similarity import analyze_similarity

        obs.enable(clock=fixed_clock())
        analyze_similarity(
            ["505.mcf_r", "541.leela_r", "531.deepsjeng_r"],
            machines=["skylake-i7-6700"],
        )
        obs.disable()
        names = {
            span.name
            for root in obs.finished_roots()
            for span in root.walk()
        }
        assert {
            "similarity.profile",
            "similarity.pca",
            "similarity.cluster",
            "dataset.build_matrix",
            "pca.fit",
            "cluster.linkage",
        } <= names

    def test_cli_obs_summary_and_manifest(self, capsys, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        trace_path = tmp_path / "trace.json"
        assert main(
            [
                "profile", "505.mcf_r", "--obs", "summary",
                "--trace-out", str(trace_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "repro.profile" in out
        assert "profiler.cache.miss" in out
        document = json.loads(trace_path.read_text())
        assert document["traceEvents"]
        assert main(["obs-report", "--dir", str(tmp_path)]) == 0
        report = capsys.readouterr().out
        assert "command:  profile" in report

    def test_cli_obs_off_is_silent(self, capsys):
        from repro.cli import main

        assert main(["profile", "505.mcf_r"]) == 0
        out = capsys.readouterr().out
        assert "obs" not in out
        assert not obs.enabled()


LIBRARY_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"

class TestLazyImport:
    def test_import_repro_does_not_load_the_run_ledger(self):
        # The ledger modules load on first attribute access of
        # repro.obs, so a plain command never imports them.
        import os
        import subprocess
        import sys

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        ledger = [
            f"repro.obs.{name}"
            for name in ("baseline", "export", "history", "manifest",
                         "openmetrics")
        ]
        code = (
            "import sys, repro, repro.obs; "
            "from repro.workloads.spec import all_workloads; "
            "all_workloads(); "
            f"before = [m for m in {ledger!r} if m in sys.modules]; "
            "from repro import obs; obs.history; obs.export; "
            f"after = [m for m in {ledger!r} if m in sys.modules]; "
            "print(before, len(after))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        )
        # history imports manifest itself.
        assert result.stdout.strip() == "[] 3"


#: Modules allowed to print: the CLI and the reporting/rendering layer.
PRINT_ALLOWED = ("cli.py", "reporting/")


def _bare_print_calls(path: Path) -> list:
    tree = ast.parse(path.read_text())
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


class TestNoBarePrints:
    def test_library_code_does_not_print(self):
        offenders = {}
        for path in sorted(LIBRARY_ROOT.rglob("*.py")):
            relative = path.relative_to(LIBRARY_ROOT).as_posix()
            if any(relative.startswith(a) or relative == a
                   for a in PRINT_ALLOWED):
                continue
            lines = _bare_print_calls(path)
            if lines:
                offenders[relative] = lines
        assert not offenders, (
            f"bare print() in library code (use repro.obs or return "
            f"strings instead): {offenders}"
        )
