"""Concurrency tests for the parallel profiling executor."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ConfigurationError, ExecutionError
from repro.obs.progress import set_heartbeat_hook
from repro.perf import executor as executor_module
from repro.perf.executor import (
    ProfilingExecutor,
    _init_worker,
    _profile_chunk,
    workload_chunks,
)
from repro.perf.profiler import EngineConfig, Profiler, pair_key
from repro.uarch.machine import get_machine
from repro.workloads.spec import get_workload

WORKLOADS = ("505.mcf_r", "541.leela_r", "531.deepsjeng_r", "557.xz_r")
MACHINES = ("skylake-i7-6700", "sparc-t4")


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()


def pairs():
    return [(w, m) for w in WORKLOADS for m in MACHINES]


def invalid_trace_config() -> EngineConfig:
    """A trace EngineConfig with trace_instructions=-1.

    EngineConfig validates on construction, so the bad value is
    written afterwards; the engine itself then raises inside a worker.
    """
    config = EngineConfig(engine="trace")
    object.__setattr__(config, "trace_instructions", -1)
    return config


def workload_major(n):
    """``n`` resolved pairs, each workload's pairs adjacent."""
    return [
        (get_workload(WORKLOADS[i * len(WORKLOADS) // n]),
         get_machine(MACHINES[i % len(MACHINES)]))
        for i in range(n)
    ]


class TestChunking:
    def test_chunks_cover_every_index_in_order(self):
        # At most jobs * _CHUNKS_PER_WORKER chunks: a pool sweep submits
        # every chunk at once.
        for n in (0, 1, 7, 8, 100):
            for jobs in (1, 2, 4, 16):
                chunks = workload_chunks(workload_major(n), jobs)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(n))
                assert len(chunks) <= jobs * executor_module._CHUNKS_PER_WORKER

    def test_split_is_a_pure_function_of_its_inputs(self, monkeypatch):
        pending = workload_major(10)
        assert workload_chunks(pending, 4) == workload_chunks(pending, 4)
        monkeypatch.setattr(executor_module, "_CHUNKS_PER_WORKER", 2)
        assert workload_chunks(pending, 2) == [
            [0, 1, 2], [3, 4, 5], [6, 7, 8], [9],
        ]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            workload_chunks(workload_major(5), 0)


class TestBackendEquivalence:
    def reference(self):
        return [Profiler().profile(w, m) for w, m in pairs()]

    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_every_jobs_count_matches_serial_profiling(self, jobs):
        executor = ProfilingExecutor(Profiler(), jobs=jobs)
        assert executor.run(pairs()) == self.reference()

    @pytest.mark.parametrize("method", ("spawn", "forkserver"))
    def test_every_start_method_matches_jobs_1(self, monkeypatch, method):
        # Spawn and forkserver workers inherit nothing: the pool
        # initializer's arguments reach them pickled.
        import multiprocessing

        def sweep(jobs):
            profiler = Profiler(engine="trace", trace_instructions=20_000)
            return ProfilingExecutor(profiler, jobs=jobs).run(pairs()[:2])

        expected = sweep(1)
        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda *_args: context
        )
        assert sweep(2) == expected

    def test_odd_chunk_sizes_do_not_change_results(self, monkeypatch):
        # Chunks of 3, 2 and 1 pairs over three workers.
        for per_worker in (1, 2, 3):
            monkeypatch.setattr(
                executor_module, "_CHUNKS_PER_WORKER", per_worker
            )
            executor = ProfilingExecutor(Profiler(), jobs=3)
            assert executor.run(pairs()) == self.reference()

    def test_duplicate_pairs_are_computed_once_and_fill_every_slot(self):
        profiler = Profiler()
        executor = ProfilingExecutor(profiler, jobs=2)
        doubled = pairs() + pairs()
        results = executor.run(doubled)
        assert results[: len(pairs())] == results[len(pairs()):]
        assert profiler.cache_info().misses == len(pairs())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilingExecutor(Profiler(), jobs=0)


class TestWorkerFailure:
    def _crashing(self, monkeypatch, fail_on: str):
        import repro.perf.executor as mod

        real = mod.compute_reports

        def flaky(spec, configs, engine_config, table):
            if spec.name == fail_on:
                raise RuntimeError("simulated engine crash")
            return real(spec, configs, engine_config, table)

        monkeypatch.setattr(mod, "compute_reports", flaky)

    @pytest.mark.parametrize("jobs", (1, 4))
    def test_crash_surfaces_execution_error_naming_the_pair(
        self, monkeypatch, jobs
    ):
        self._crashing(monkeypatch, fail_on="541.leela_r")
        executor = ProfilingExecutor(Profiler(), jobs=jobs)
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(pairs())
        message = str(excinfo.value)
        assert "541.leela_r@" in message

    @pytest.mark.parametrize(
        "jobs, crash", [(1, "raise"), (2, "raise"), (2, "exit")]
    )
    def test_failed_sweep_still_closes_its_progress(
        self, monkeypatch, jobs, crash
    ):
        import os

        def crashing(spec, configs, engine_config, table):
            if crash == "exit":
                os._exit(3)  # the worker dies and the pool breaks
            raise RuntimeError("simulated engine crash")

        monkeypatch.setattr(executor_module, "compute_reports", crashing)
        beats = []
        set_heartbeat_hook(lambda *beat: beats.append(beat))
        try:
            with pytest.raises(ExecutionError):
                ProfilingExecutor(Profiler(), jobs=jobs).run(
                    pairs(), progress_label="sweep"
                )
        finally:
            set_heartbeat_hook(None)
        # No pair completed, so the one heartbeat is close()'s.
        assert beats == [("sweep", 0, len(pairs()))]

    def test_worker_marshals_errors_as_strings(self, monkeypatch):
        # Direct unit test of the in-worker protocol: a bad payload
        # pair produces an ("err", label, traceback) outcome, which is
        # what survives pickling back from a process worker.
        import os

        spec = get_workload("505.mcf_r")
        config = get_machine("skylake-i7-6700")
        monkeypatch.setattr(executor_module, "_WORKER", None)
        _init_worker(invalid_trace_config(), None, "off")
        index, outcomes, extras = _profile_chunk(
            (7, [(spec, config)], None)
        )
        assert index == 7
        tag, label, trace_text = outcomes[0]
        assert tag == "err"
        assert label == "505.mcf_r@skylake-i7-6700"
        assert "Traceback" in trace_text
        assert extras["pid"] == os.getpid()
        assert extras["spans"] is None and extras["profile"] is None

    def test_crash_in_a_process_worker_is_marshalled(self):
        # trace_instructions=-1 makes the engine itself raise inside
        # the real process worker; the executor must convert that into
        # an ExecutionError naming the pair, not crash the pool.
        profiler = Profiler(engine="trace")
        profiler.engine_config = invalid_trace_config()
        executor = ProfilingExecutor(profiler, jobs=2)
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(pairs()[:2])
        assert "@" in str(excinfo.value)


class TestCancellation:
    def test_cancel_leaves_no_partial_cache_files(self, monkeypatch, tmp_path):
        import repro.perf.executor as mod

        real = mod.compute_reports

        def interrupting(spec, configs, engine_config, table):
            # Keyed on the workload, not a call count: every pool
            # worker counts its own calls.  The first workload's chunks
            # are dispatched first, so some complete before the Ctrl-C.
            if spec.name == WORKLOADS[1]:
                raise KeyboardInterrupt
            return real(spec, configs, engine_config, table)

        monkeypatch.setattr(mod, "compute_reports", interrupting)
        profiler = Profiler(cache_dir=tmp_path)
        executor = ProfilingExecutor(profiler, jobs=2)
        with pytest.raises(KeyboardInterrupt):
            executor.run(pairs())
        # Atomic-rename discipline: no temporaries, and whatever entries
        # did land are complete and loadable.
        assert not list(tmp_path.rglob("*.part"))
        for entry in profiler.disk_cache._entries():
            key = entry.stem
            assert profiler.disk_cache.load(key) is not None

    def test_interrupted_sweep_can_resume_from_disk(self, monkeypatch, tmp_path):
        self.test_cancel_leaves_no_partial_cache_files(monkeypatch, tmp_path)
        monkeypatch.undo()
        profiler = Profiler(cache_dir=tmp_path)
        results = ProfilingExecutor(profiler, jobs=2).run(pairs())
        assert len(results) == len(pairs())
        assert profiler.cache_info().disk_hits > 0


class TestObservability:
    def test_sweep_exports_pool_metrics(self):
        obs.enable()
        executor = ProfilingExecutor(Profiler(), jobs=2)
        executor.run(pairs())
        obs.disable()
        snapshot = obs.snapshot()
        assert snapshot["gauges"]["executor.pool.jobs"] == 2
        assert snapshot["gauges"]["executor.pool.inflight"] == 0
        # Every chunk is submitted at once: one per pair here.
        assert snapshot["gauges"]["executor.pool.peak_inflight"] == len(
            pairs()
        )
        assert snapshot["counters"]["executor.tasks.completed"] == len(pairs())
        assert snapshot["counters"]["profiler.cache.miss"] == len(pairs())

    def test_pool_worker_counters_reach_the_parent_registry(
        self, monkeypatch
    ):
        real = executor_module.compute_reports

        def idle_counter(spec, configs, engine_config, table):
            obs.metrics.incr("test.idle", 0)  # touched, never advanced
            return real(spec, configs, engine_config, table)

        monkeypatch.setattr(executor_module, "compute_reports", idle_counter)
        obs.enable()
        profiler = Profiler(engine="trace", trace_instructions=2_000)
        ProfilingExecutor(profiler, jobs=2).run(pairs())
        obs.disable()
        counters = obs.snapshot()["counters"]
        spans = [span for root in obs.finished_roots() for span in root.walk()]
        fused = [span for span in spans if span.name == "trace.fused"]
        assert counters["trace_engine.profiles"] == len(pairs())
        assert counters["trace_engine.fused_batches"] == len(fused) > 0
        # A worker ships positive deltas only: zero ones never
        # materialize a series in the parent.
        assert "test.idle" not in counters

    def test_obs_check_of_pool_runs_flags_no_series(
        self, capsys, monkeypatch, tmp_path
    ):
        import json

        from repro.cli import main
        from repro.obs import history
        from repro.obs.manifest import build_manifest
        from repro.obs.trace import Clock

        # Every pool chunk synthesizes into a table of its own, so two
        # identical jobs=2 trace sweeps record equal values for every
        # series, trace_cache.* included, and obs check flags none.  A
        # constant clock, which fork-started workers inherit, keeps
        # stage wall times out of the verdict.
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        argv = ["dataset", "--engine", "trace", "--jobs", "2"]
        series = []
        # First use runs the registry's calibration and digests each
        # spec and machine; neither belongs to a sweep.
        for workload, machine in pairs():
            pair_key(get_workload(workload), get_machine(machine))
        try:
            for _ in range(2):
                obs.reset()
                obs.metrics.reset()
                obs.enable(clock=Clock(wall=lambda: 0.0, cpu=lambda: 0.0))
                profiler = Profiler(engine="trace", trace_instructions=2_000)
                ProfilingExecutor(profiler, jobs=2).run(pairs())
                obs.disable()
                snapshot = obs.snapshot()
                history.record_run(build_manifest(
                    "dataset", argv, obs.finished_roots(), snapshot
                ))
                series.append({**snapshot["counters"], **snapshot["gauges"]})
        finally:
            obs.reset(clock=Clock())
        assert series[0] == series[1]
        assert series[1]["trace_cache.miss"] > 0
        assert "trace_cache.hit" not in series[1]
        assert main(["obs", "check", "--json"]) == 0
        findings = json.loads(capsys.readouterr().out)["findings"]
        assert {
            finding["name"]: finding["status"]
            for finding in findings
            if finding["kind"] == "counter"
        } == dict.fromkeys(series[1], "ok")

    def test_a_worker_ships_the_same_trace_counts_for_each_chunk(
        self, monkeypatch
    ):
        # One pool worker serving two chunks of one workload: each
        # chunk synthesizes into its own table, so the second ships the
        # first's misses again and no hit.
        spec = get_workload("505.mcf_r")
        machines = [get_machine(name) for name in MACHINES]
        monkeypatch.setattr(executor_module, "_WORKER", None)
        obs.enable()
        try:
            with obs.span("fake.sweep"):
                _init_worker(
                    EngineConfig(engine="trace", trace_instructions=2_000),
                    obs.current_context(), "off",
                )
                shipped = [
                    _profile_chunk(
                        (index, [(spec, m) for m in machines], None)
                    )[2]["counters"]
                    for index in range(2)
                ]
        finally:
            obs.disable()
        assert [c["trace_cache.miss"] for c in shipped] == [len(machines)] * 2
        assert not any("trace_cache.hit" in c for c in shipped)

    def test_cached_pairs_count_as_from_cache(self):
        profiler = Profiler()
        ProfilingExecutor(profiler, jobs=2).run(pairs())
        obs.enable()
        ProfilingExecutor(profiler, jobs=2).run(pairs())
        obs.disable()
        snapshot = obs.snapshot()
        assert snapshot["counters"]["executor.tasks.from_cache"] == len(pairs())
        assert snapshot["counters"]["profiler.cache.hit"] == len(pairs())

    def test_pool_workers_emit_chunk_spans(self, monkeypatch):
        import os

        # Two chunks per worker: two pairs, one workload, per chunk.
        monkeypatch.setattr(executor_module, "_CHUNKS_PER_WORKER", 2)
        obs.enable()
        ProfilingExecutor(Profiler(), jobs=2).run(pairs())
        obs.disable()
        spans = [span for root in obs.finished_roots() for span in root.walk()]
        (sweep,) = [span for span in spans if span.name == "executor.sweep"]
        chunks = [span for span in spans if span.name == "executor.chunk"]
        # One chunk per workload, each grafted under the sweep span
        # from a worker process.
        assert len(chunks) == len(WORKLOADS)
        assert all(chunk in sweep.children for chunk in chunks)
        assert {chunk.parent_id for chunk in chunks} == {sweep.span_id}
        assert all(chunk.pid != os.getpid() for chunk in chunks)
        # A chunk carries one workload's two machines: one engine batch.
        names = {span.name for chunk in chunks for span in chunk.walk()}
        assert "profile.batch" in names
        assert "engine.analytic" in names

    def test_race_safe_cache_info_mid_sweep(self):
        import threading

        profiler = Profiler()
        executor = ProfilingExecutor(profiler, jobs=4)
        stop = threading.Event()
        snapshots = []

        def reader():
            while not stop.is_set():
                info = profiler.cache_info()
                # hits+misses can never exceed lookups issued; the
                # tuple must always be internally consistent.
                assert info.hits >= 0 and info.misses >= 0
                snapshots.append(info)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            executor.run(pairs())
        finally:
            stop.set()
            thread.join()
        final = profiler.cache_info()
        assert final.misses == len(pairs())
        assert final.size == len(pairs())


class TestLazyPoolImports:
    def test_in_process_commands_load_no_pool_module(self, tmp_path):
        # Only a --jobs N sweep needs the standard library's pool
        # machinery; start-up, a --jobs 1 trace sweep and the full
        # report must not pay for importing it.
        import os
        import subprocess
        import sys
        import textwrap
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        pool_only = [
            "multiprocessing", "concurrent.futures", "socket", "selectors",
            "logging", "subprocess", "queue", "http.server",
        ]
        code = textwrap.dedent(f"""
            import contextlib, io, sys
            from repro.cli import main
            from repro.workloads.spec import all_workloads

            all_workloads()
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [
                    main(["dataset", "--suite", "eda", "--engine", "trace",
                          "--jobs", "1", "--no-disk-cache"]),
                    main(["report", "--out", "REPORT.md",
                          "--no-disk-cache"]),
                ]
            print(codes, [m for m in {pool_only!r} if m in sys.modules])
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path,
            env=env, capture_output=True, text=True, check=True,
        )
        assert result.stdout.strip() == "[0, 0] []"
