"""Concurrency tests for the parallel profiling executor."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import ConfigurationError, ExecutionError
from repro.perf.executor import (
    BACKENDS,
    ProfilingExecutor,
    _profile_chunk,
    chunk_spans,
)
from repro.perf.profiler import Profiler
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


class TestChunking:
    def test_chunks_cover_every_index_in_order(self):
        for n in (0, 1, 7, 8, 100):
            for jobs in (1, 2, 4, 16):
                chunks = chunk_spans(n, jobs)
                flat = [i for chunk in chunks for i in chunk]
                assert flat == list(range(n))

    def test_split_is_a_pure_function_of_its_inputs(self):
        assert chunk_spans(100, 4) == chunk_spans(100, 4)
        assert chunk_spans(10, 2, chunk_size=3) == [
            range(0, 3), range(3, 6), range(6, 9), range(9, 10),
        ]

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ConfigurationError):
            chunk_spans(-1, 2)
        with pytest.raises(ConfigurationError):
            chunk_spans(5, 0)
        with pytest.raises(ConfigurationError):
            chunk_spans(5, 2, chunk_size=0)


class TestBackendEquivalence:
    def reference(self):
        return [Profiler().profile(w, m) for w, m in pairs()]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("jobs", (1, 2, 4))
    def test_every_backend_matches_serial_profiling(self, backend, jobs):
        executor = ProfilingExecutor(Profiler(), jobs=jobs, backend=backend)
        assert executor.run(pairs()) == self.reference()

    def test_thread_and_process_agree_for_the_trace_engine(self):
        def sweep(backend):
            profiler = Profiler(engine="trace", trace_instructions=2_000)
            executor = ProfilingExecutor(profiler, jobs=2, backend=backend)
            return executor.run(pairs()[:4])

        assert sweep("thread") == sweep("process")

    def test_odd_chunk_sizes_do_not_change_results(self):
        for chunk_size in (1, 3, 100):
            executor = ProfilingExecutor(
                Profiler(), jobs=3, backend="thread", chunk_size=chunk_size
            )
            assert executor.run(pairs()) == self.reference()

    def test_duplicate_pairs_are_computed_once_and_fill_every_slot(self):
        profiler = Profiler()
        executor = ProfilingExecutor(profiler, jobs=2, backend="thread")
        doubled = pairs() + pairs()
        results = executor.run(doubled)
        assert results[: len(pairs())] == results[len(pairs()):]
        assert profiler.cache_info().misses == len(pairs())

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            ProfilingExecutor(Profiler(), jobs=0)
        with pytest.raises(ConfigurationError):
            ProfilingExecutor(Profiler(), backend="gpu")


class TestWorkerFailure:
    def _crashing(self, monkeypatch, fail_on: str):
        import repro.perf.executor as mod

        real = mod.compute_reports

        def flaky(spec, configs, engine, **kwargs):
            if spec.name == fail_on:
                raise RuntimeError("simulated engine crash")
            return real(spec, configs, engine, **kwargs)

        monkeypatch.setattr(mod, "compute_reports", flaky)

    @pytest.mark.parametrize("jobs,backend", [(1, "thread"), (4, "thread")])
    def test_crash_surfaces_execution_error_naming_the_pair(
        self, monkeypatch, jobs, backend
    ):
        self._crashing(monkeypatch, fail_on="541.leela_r")
        executor = ProfilingExecutor(
            Profiler(), jobs=jobs, backend=backend, chunk_size=1
        )
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(pairs())
        message = str(excinfo.value)
        assert "541.leela_r@" in message

    def test_worker_marshals_errors_as_strings(self):
        # Direct unit test of the in-worker protocol: a bad payload
        # pair produces an ("err", label, traceback) outcome, which is
        # what survives pickling back from a process worker.
        import os

        spec = get_workload("505.mcf_r")
        config = get_machine("skylake-i7-6700")
        index, outcomes, extras = _profile_chunk(
            (
                7, "trace", -1, 2017,
                [(spec, config)], None, os.getpid(), "off", None, None,
            )
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
        # (Profiler validates eagerly now, so sneak the bad value in
        # after construction to exercise the in-worker failure path.)
        profiler = Profiler(engine="trace")
        profiler.trace_instructions = -1
        executor = ProfilingExecutor(profiler, jobs=2, backend="process")
        with pytest.raises(ExecutionError) as excinfo:
            executor.run(pairs()[:2])
        assert "@" in str(excinfo.value)


class TestCancellation:
    def test_cancel_leaves_no_partial_cache_files(self, monkeypatch, tmp_path):
        import repro.perf.executor as mod

        real = mod.compute_reports
        state = {"calls": 0}

        def interrupting(spec, configs, engine, **kwargs):
            state["calls"] += 1
            if state["calls"] == 3:  # mid-sweep Ctrl-C
                raise KeyboardInterrupt
            return real(spec, configs, engine, **kwargs)

        monkeypatch.setattr(mod, "compute_reports", interrupting)
        profiler = Profiler(cache_dir=tmp_path)
        executor = ProfilingExecutor(
            profiler, jobs=2, backend="thread", chunk_size=1
        )
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
        profiler = Profiler(cache_dir=tmp_path)
        results = ProfilingExecutor(profiler, jobs=2).run(pairs())
        assert len(results) == len(pairs())
        assert profiler.cache_info().disk_hits > 0


class TestObservability:
    def test_sweep_exports_pool_metrics(self):
        obs.enable()
        executor = ProfilingExecutor(Profiler(), jobs=2, backend="thread")
        executor.run(pairs())
        obs.disable()
        snapshot = obs.snapshot()
        assert snapshot["gauges"]["executor.pool.jobs"] == 2
        assert snapshot["gauges"]["executor.pool.inflight"] == 0
        assert snapshot["counters"]["executor.tasks.completed"] == len(pairs())
        assert snapshot["counters"]["profiler.cache.miss"] == len(pairs())

    def test_dispatch_window_bounds_inflight_chunks(self):
        # 24 single-pair chunks against a 2-worker pool: the lazy
        # dispatcher must never materialize more than jobs * 4 payloads
        # at once, and the bounded window must not perturb results.
        many = pairs() * 3
        obs.enable()
        executor = ProfilingExecutor(Profiler(), jobs=2, chunk_size=1)
        windowed = executor.run(many)
        obs.disable()
        snapshot = obs.snapshot()
        peak = snapshot["gauges"]["executor.pool.peak_inflight"]
        assert 1 <= peak <= 2 * 4
        serial = ProfilingExecutor(Profiler(), jobs=1).run(many)
        assert windowed == serial

    def test_cached_pairs_count_as_from_cache(self):
        profiler = Profiler()
        ProfilingExecutor(profiler, jobs=2).run(pairs())
        obs.enable()
        ProfilingExecutor(profiler, jobs=2).run(pairs())
        obs.disable()
        snapshot = obs.snapshot()
        assert snapshot["counters"]["executor.tasks.from_cache"] == len(pairs())
        assert snapshot["counters"]["profiler.cache.hit"] == len(pairs())

    def test_thread_workers_emit_chunk_spans(self):
        obs.enable()
        ProfilingExecutor(Profiler(), jobs=2, chunk_size=2).run(pairs())
        obs.disable()
        names = {
            span.name
            for root in obs.finished_roots()
            for span in root.walk()
        }
        assert "executor.sweep" in names
        assert "executor.chunk" in names
        assert "profile" in names

    def test_race_safe_cache_info_mid_sweep(self):
        import threading

        profiler = Profiler()
        executor = ProfilingExecutor(profiler, jobs=4, chunk_size=1)
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
