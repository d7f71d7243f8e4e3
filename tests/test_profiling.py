"""Tests for the sampling resource profiler and span propagation.

Covers the DESIGN.md contracts of ``repro.obs.profiling``: sampler
selection and sample collection, first-instance-only alloc probes
(the tracemalloc budget trick), worker profile merging with per-pid
attribution, cross-process span propagation through the executor, and
the flamegraph / top exporters.
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

import pytest

from repro import obs
from repro.obs import metrics as obs_metrics
from repro.obs import profiling
from repro.obs.trace import TraceContext
from repro.perf import executor as executor_module
from repro.perf.executor import ProfilingExecutor, _profile_chunk
from repro.perf.profiler import EngineConfig, Profiler
from repro.uarch.machine import get_machine
from repro.workloads.spec import get_workload


@pytest.fixture(autouse=True)
def _clean_profiling():
    """Every test starts and ends without an active session."""
    profiling.end_session()
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    profiling.end_session()
    obs.disable()
    obs.reset()
    obs.metrics.reset()


def _spin(seconds: float) -> None:
    """Burn CPU on the current thread (sampleable work)."""
    deadline = time.process_time() + seconds
    while time.process_time() < deadline:
        sum(range(200))


class TestPeakRss:
    def test_positive_and_monotonic(self):
        first = profiling.peak_rss_bytes()
        assert first > 0
        ballast = bytearray(8 << 20)
        second = profiling.peak_rss_bytes()
        assert second >= first
        del ballast


class TestSamplers:
    def test_signal_sampler_collects_cpu_samples(self):
        if not profiling._SignalSampler.usable():
            pytest.skip("signal sampling needs the main thread")
        profiler = profiling.ResourceProfiler(
            mode="cpu", sampler="signal", interval_s=0.001
        )
        profiler.start()
        _spin(0.2)
        data = profiler.stop()
        assert data.sampler == "signal"
        assert data.sample_count > 0
        assert any("_spin" in key for key in data.samples)

    def test_thread_sampler_collects_wall_samples(self):
        profiler = profiling.ResourceProfiler(
            mode="cpu", sampler="thread", interval_s=0.001
        )
        profiler.start()
        _spin(0.2)
        data = profiler.stop()
        assert data.sampler == "thread"
        assert data.sample_count > 0
        assert any("_spin" in key for key in data.samples)

    def test_off_mode_collects_nothing(self):
        profiler = profiling.ResourceProfiler(mode="off")
        profiler.start()
        _spin(0.01)
        data = profiler.stop()
        assert data.sample_count == 0
        assert data.samples == {}
        assert data.sampler == "none"

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            profiling.ResourceProfiler(mode="everything")
        with pytest.raises(ValueError):
            profiling.ResourceProfiler(sampler="perf")

    def test_signal_sampler_restores_previous_handler(self):
        import signal as signal_mod

        if not profiling._SignalSampler.usable():
            pytest.skip("signal sampling needs the main thread")
        before = signal_mod.getsignal(signal_mod.SIGPROF)
        sampler = profiling._SignalSampler(0.01)
        sampler.start()
        sampler.stop()
        assert signal_mod.getsignal(signal_mod.SIGPROF) == before


class TestAllocProbes:
    def test_stage_probe_records_alloc_peak(self):
        session = profiling.start_session("mem")
        with profiling.stage_probe("stage.alloc"):
            ballast = bytearray(4 << 20)
            del ballast
        data = profiling.end_session()
        assert data.stage_alloc_peaks["stage.alloc"] >= 4 << 20
        assert data.peak_alloc_bytes >= 4 << 20
        assert session is not None

    def test_probe_is_noop_without_session(self):
        probe = profiling.stage_probe("anything")
        with probe:
            pass
        assert probe is profiling._NULL_PROBE

    def test_probe_is_noop_in_cpu_mode(self):
        profiling.start_session("cpu")
        assert profiling.stage_probe("x") is profiling._NULL_PROBE
        profiling.end_session()

    def test_first_instance_only(self):
        # The budget trick: only the first instance of each label is
        # traced; repeats (identical for deterministic stages) run
        # untaxed.
        profiling.start_session("mem")
        first = profiling.stage_probe("stage.repeat")
        with first:
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()
        second = profiling.stage_probe("stage.repeat")
        assert second is profiling._NULL_PROBE
        other = profiling.stage_probe("stage.other")
        assert other is not profiling._NULL_PROBE
        with other:
            pass
        profiling.end_session()

    def test_probe_never_stops_foreign_tracemalloc(self):
        profiling.start_session("mem")
        tracemalloc.start()
        try:
            probe = profiling.stage_probe("stage.foreign")
            # A foreign tracemalloc session means no probe at all —
            # starting/stopping would clobber the user's measurement.
            assert probe is profiling._NULL_PROBE
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()
            profiling.end_session()

    def test_alloc_probes_disabled_for_workers(self):
        profiler = profiling.ResourceProfiler(mode="mem", alloc_probes=False)
        assert profiler.alloc_probe("stage.x") is profiling._NULL_PROBE

    def test_clear_inherited_session(self):
        profiling.start_session("mem")
        profiling.clear_inherited_session()
        assert profiling.active_session() is None
        # end_session on the cleared state is a clean no-op.
        assert profiling.end_session() is None


class TestSessionAndMetrics:
    def test_off_session_is_none(self):
        assert profiling.start_session("off") is None
        assert profiling.active_session() is None

    def test_final_stats_survive_obs_disable(self):
        # The CLI snapshots metrics after obs.disable(); the profiler
        # publishes through always-live handles so its gauges survive.
        obs.enable()
        profiling.start_session("all", interval_s=0.001)
        _spin(0.1)
        data = profiling.end_session()
        obs.disable()
        snapshot = obs_metrics.snapshot()
        assert snapshot["counters"]["profiler.samples"] == data.sample_count
        assert (
            snapshot["gauges"]["profiler.peak_rss_bytes"]
            == float(data.peak_rss_bytes)
        )
        assert "profiler.peak_alloc_bytes" in snapshot["gauges"]

    def test_worker_profiles_merge_with_pid_attribution(self):
        profiling.start_session("cpu", interval_s=0.001)
        worker = {
            "samples": {"a;b": 3, "a;c": 2},
            "sample_count": 5,
            "peak_rss_bytes": 123456789,
            "peak_alloc_bytes": 0,
            "stage_alloc_peaks": {"profile.trace": 42},
            "duration_s": 1.5,
        }
        profiling.absorb_worker_profile(worker, pid=4242)
        data = profiling.end_session()
        assert data.samples["a;b"] >= 3
        assert data.peak_rss_bytes >= 123456789
        assert data.stage_alloc_peaks["profile.trace"] >= 42
        assert [w["pid"] for w in data.workers] == [4242]
        assert data.workers[0]["sample_count"] == 5

    def test_profile_data_round_trips_through_json(self):
        profiling.start_session("all", interval_s=0.001)
        _spin(0.05)
        profiling.absorb_worker_profile(
            {"samples": {"x": 1}, "sample_count": 1,
             "peak_rss_bytes": 10, "peak_alloc_bytes": 0,
             "stage_alloc_peaks": {}, "duration_s": 0.1},
            pid=99,
        )
        data = profiling.end_session()
        clone = profiling.ProfileData.from_dict(
            json.loads(json.dumps(data.to_dict()))
        )
        assert clone.to_dict() == data.to_dict()


class TestChunkWorkerProtocol:
    @pytest.fixture()
    def worker(self, monkeypatch):
        """Set this process up as a pool worker, as the initializer
        does; returns a 3-field chunk payload builder."""
        monkeypatch.setattr(executor_module, "_WORKER", None)

        def setup(profile_mode, context=None, submitted_wall=None):
            executor_module._init_worker(EngineConfig(), context, profile_mode)
            spec = get_workload("505.mcf_r")
            config = get_machine("skylake-i7-6700")
            return (3, [(spec, config)], submitted_wall)

        return setup

    def test_remote_chunk_ships_profile(self, worker):
        index, outcomes, extras = _profile_chunk(worker("cpu"))
        assert index == 3
        assert outcomes[0][0] == "ok"
        assert extras["profile"] is not None
        assert extras["profile"]["mode"] == "cpu"
        assert extras["profile"]["sampler"] == "thread"
        assert extras["pid"] == os.getpid()
        # No trace context -> no span capture.
        assert extras["spans"] is None

    def test_remote_chunk_ships_spans_when_traced(self, worker):
        obs.enable()
        with obs.span("fake.sweep") as sweep:
            context = TraceContext(
                trace_id=1, span_id=sweep.span_id, pid=os.getpid() + 1
            )
            _index, _outcomes, extras = _profile_chunk(
                worker("off", context=context)
            )
        obs.disable()
        assert extras["profile"] is None
        names = {entry["name"] for entry in extras["spans"]}
        assert "executor.chunk" in names
        for entry in extras["spans"]:
            assert entry["parent_id"] == sweep.span_id

    def test_local_chunk_ships_nothing(self):
        # jobs=1 runs the chunk body in this process: the session
        # samples it directly and its spans nest under the sweep span,
        # so nothing is shipped, merged or adopted.
        obs.enable()
        profiling.start_session("all", interval_s=0.005)
        ProfilingExecutor(Profiler(), jobs=1).run(
            [("505.mcf_r", "skylake-i7-6700")]
        )
        data = profiling.end_session()
        obs.disable()
        assert data.workers == []
        counters = obs_metrics.snapshot()["counters"]
        assert "executor.spans.adopted" not in counters
        chunks = [
            node
            for root in obs.finished_roots()
            for node in root.walk()
            if node.name == "executor.chunk"
        ]
        assert chunks and all(node.pid == os.getpid() for node in chunks)

    def test_queue_wait_measured_from_submit_stamp(self, worker):
        payload = worker("off", submitted_wall=time.perf_counter() - 0.25)
        _index, _outcomes, extras = _profile_chunk(payload)
        assert extras["queue_wait_s"] >= 0.25


class TestExecutorIntegration:
    def _pairs(self):
        specs = [get_workload(n) for n in ("505.mcf_r", "541.leela_r")]
        machines = [get_machine("skylake-i7-6700"), get_machine("opteron-2435")]
        return [(s, m) for s in specs for m in machines]

    @pytest.mark.parametrize("jobs", (1, 2))
    def test_profiled_sweep_matches_unprofiled(self, jobs):
        plain = ProfilingExecutor(Profiler(), jobs=jobs).run(self._pairs())
        profiling.start_session("all", interval_s=0.005)
        profiled = ProfilingExecutor(Profiler(), jobs=jobs).run(self._pairs())
        profiling.end_session()
        assert [r.metrics for r in profiled] == [r.metrics for r in plain]

    def test_pool_workers_profile_under_the_active_session(self):
        # No profile mode is passed anywhere: the executor reads the
        # session the caller started and ships its mode to the workers.
        profiling.start_session("cpu", interval_s=0.005)
        ProfilingExecutor(Profiler(), jobs=2).run(self._pairs())
        data = profiling.end_session()
        assert data.workers
        assert all(w["pid"] != os.getpid() for w in data.workers)

    def test_process_sweep_merges_worker_spans(self):
        obs.enable()
        profiling.start_session("cpu", interval_s=0.005)
        ProfilingExecutor(Profiler(), jobs=2).run(self._pairs())
        profiling.end_session()
        obs.disable()
        own_pid = os.getpid()
        chunk_pids = {
            node.pid
            for root in obs.finished_roots()
            for node in root.walk()
            if node.name == "executor.chunk"
        }
        assert chunk_pids
        assert chunk_pids - {own_pid}, "expected chunk spans from workers"


class TestExporters:
    SAMPLES = {"main;engine;simulate": 6, "main;engine;synthesize": 3,
               "main;io": 1}

    def test_collapsed_format(self):
        text = profiling.collapsed_stacks(self.SAMPLES)
        lines = text.splitlines()
        assert "main;engine;simulate 6" in lines
        assert len(lines) == 3

    def test_flamegraph_html_is_self_contained(self):
        html = profiling.flamegraph_html(self.SAMPLES, title="t & t")
        assert html.startswith("<!DOCTYPE html>")
        assert "t &amp; t" in html
        assert "simulate" in html
        assert "http" not in html  # no external resources
        assert "10 samples" in html

    def test_flamegraph_html_empty(self):
        html = profiling.flamegraph_html({})
        assert "no samples" in html

    def test_top_frames_self_vs_total(self):
        ranked = profiling.top_frames(self.SAMPLES, n=2)
        assert ranked[0]["frame"] == "simulate"
        assert ranked[0]["self_samples"] == 6
        # "engine" has no self samples but 9 total; "main" has 10 total.
        totals = {
            entry["frame"]: entry["total_samples"]
            for entry in profiling.top_frames(self.SAMPLES, n=10)
        }
        assert "engine" not in totals  # no self time -> not ranked
        assert totals["simulate"] == 6

    def test_top_manifest_series_from_histograms(self):
        manifest = {
            "metrics": {
                "histograms": {
                    "span.profile.wall_seconds": {"count": 4, "mean": 0.5},
                    "span.idle.wall_seconds": {"count": 0, "mean": 0.0},
                    "other.histogram": {"count": 9, "mean": 9.0},
                }
            }
        }
        ranked = profiling.top_manifest_series(manifest, n=5)
        assert len(ranked) == 1
        assert ranked[0]["name"] == "profile"
        assert ranked[0]["wall_s"] == pytest.approx(2.0)
