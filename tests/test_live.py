"""Live telemetry hub tests (repro.obs.live).

Covers the sweep tracker math (``Progress`` with an injected clock,
windowed EWMA, ETA), hub lifecycle (activate/deactivate/fork-disarm),
worker-event ingestion (state folding, RSS gauges), stall detection
and recovery, the event bus, and the executor integration — including
the load-bearing guarantee that a hub-on sweep produces bit-identical
results to a hub-off sweep.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs.progress import Progress


@pytest.fixture(autouse=True)
def _clean_hub():
    obs_live.deactivate()
    obs.disable()
    obs.reset()
    obs_metrics.reset()
    yield
    obs_live.deactivate()
    obs.disable()
    obs.reset()
    obs_metrics.reset()


class ManualClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


class TestSweepTracker:
    """``Progress`` is the hub's sweep tracker: the rate and ETA that
    ``/status`` and the stderr heartbeats report."""

    def test_rate_and_eta_with_injected_clock(self):
        clock = ManualClock()
        obs_live.activate(monitor=False)
        tracker = Progress("sweep", total=100, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            tracker.advance()
        assert tracker.done == 10
        assert tracker.rate_per_second == pytest.approx(1.0, rel=0.05)
        assert tracker.eta_seconds() == pytest.approx(90.0, rel=0.1)
        assert tracker.percent() == pytest.approx(10.0)

    def test_burst_completions_do_not_inflate_the_rate(self):
        # Chunk collection reports every pair of a chunk microseconds
        # apart; the windowed EWMA must measure real throughput, not
        # the burst's instantaneous rate.
        clock = ManualClock()
        obs_live.activate(monitor=False)
        tracker = Progress("sweep", total=1000, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            for _ in range(10):  # a 10-pair chunk lands "at once"
                tracker.advance()
                clock.now += 1e-6
        assert tracker.rate_per_second == pytest.approx(10.0, rel=0.1)

    def test_done_clamped_to_total(self):
        obs_live.activate(monitor=False)
        tracker = Progress("sweep", total=5, clock=ManualClock())
        tracker.advance(9)
        assert tracker.done == 5
        assert tracker.eta_seconds() is None

    def test_zero_total_counts_freely(self):
        obs_live.activate(monitor=False)
        tracker = Progress("loop", total=0, clock=ManualClock())
        tracker.advance(3)
        assert tracker.done == 3
        assert tracker.percent() == 100.0
        assert tracker.eta_seconds() is None

    def test_snapshot_is_json_ready(self):
        import json

        clock = ManualClock()
        hub = obs_live.activate(monitor=False)
        tracker = Progress("sweep", total=10, clock=clock)
        clock.now += 1.0
        tracker.advance(2)
        snapshot = tracker.snapshot()
        json.dumps(snapshot)
        assert snapshot["done"] == 2 and snapshot["total"] == 10
        assert hub.status()["sweeps"] == [snapshot]


class TestHubLifecycle:
    def test_activate_is_idempotent(self):
        hub = obs_live.activate(monitor=False)
        assert obs_live.activate(monitor=False) is hub
        assert obs_live.active_hub() is hub
        assert obs_live.hub_active()

    def test_deactivate_clears_the_hub(self):
        obs_live.activate(monitor=False)
        obs_live.deactivate()
        assert obs_live.active_hub() is None
        assert not obs_live.hub_active()

    def test_clear_inherited_hub_mimics_fork_disarm(self):
        obs_live.activate(monitor=False)
        obs_live.clear_inherited_hub()
        assert obs_live.active_hub() is None


class TestProgressIntegration:
    def test_progress_feeds_the_hub_trackers(self):
        clock = ManualClock()
        hub = obs_live.activate(clock=clock, monitor=False)
        ticker = Progress("profile-sweep", total=4)
        clock.now += 1.0
        ticker.advance(2)
        status = hub.status()
        assert status["sweeps"][0]["label"] == "profile-sweep"
        assert status["sweeps"][0]["done"] == 2
        assert obs_metrics.gauge("progress.completed").value == 2.0
        assert obs_metrics.gauge("progress.total").value == 4.0
        ticker.advance(2)
        ticker.close()
        # Closed sweeps leave the live table but the gauges persist.
        assert hub.status()["sweeps"] == []
        assert obs_metrics.gauge("progress.percent").value == 100.0

    def test_progress_without_hub_stays_detached(self):
        ticker = Progress("sweep", total=3)
        ticker.advance(3)
        ticker.close()
        assert obs_metrics.gauge("progress.completed").value == 0.0


class TestIngest:
    def test_worker_state_folding(self):
        clock = ManualClock()
        hub = obs_live.activate(clock=clock, monitor=False)
        hub.ingest({"kind": "chunk.start", "pid": 41, "chunk": 2,
                    "pairs": 5, "rss_bytes": 1000})
        hub.ingest({"kind": "pair.done", "pid": 41, "chunk": 2,
                    "pair": "a@b"})
        status = hub.status()
        worker = status["workers"][0]
        assert worker["pid"] == 41
        assert worker["chunk"] == 2
        assert worker["pairs_done"] == 1
        assert worker["rss_bytes"] == 1000
        assert obs_metrics.gauge("executor.workers.seen").value == 1.0
        hub.ingest({"kind": "chunk.done", "pid": 41, "chunk": 2,
                    "pairs": 5, "rss_bytes": 2000})
        assert hub.status()["workers"][0]["chunk"] is None

    def test_emit_worker_event_without_channel_reaches_hub(self):
        hub = obs_live.activate(monitor=False)
        obs_live.emit_worker_event(None, "pair.done", pair="x@y")
        assert hub.status()["workers"]
        events = hub.recent_events()
        assert events[-1]["kind"] == "pair.done"

    def test_emit_worker_event_is_safe_without_hub(self):
        obs_live.emit_worker_event(None, "pair.done", pair="x@y")  # no-op

    def test_chunk_bookkeeping_gauge(self):
        # The in-flight chunk count is the executor's
        # executor.pool.inflight gauge; the hub keeps only the map.
        hub = obs_live.activate(monitor=False)
        hub.chunk_submitted(0, 5)
        hub.chunk_submitted(1, 5)
        assert hub.status()["inflight_chunks"] == {"0": 5, "1": 5}
        hub.chunk_finished(0)
        assert hub.status()["inflight_chunks"] == {"1": 5}
        assert obs_metrics.snapshot()["gauges"] == {}


class TestStallDetection:
    def test_silent_worker_flips_gauge_and_emits_event(self):
        clock = ManualClock()
        hub = obs_live.activate(clock=clock, monitor=False)
        subscriber = hub.subscribe(replay=False)
        hub.ingest({"kind": "chunk.start", "pid": 7, "chunk": 0,
                    "pairs": 4})
        clock.now += 6.0  # past the threshold with no heartbeat
        assert hub.check_stalls() == [7]
        assert obs_metrics.gauge("executor.worker.stalled").value == 1.0
        kinds = []
        while not subscriber.empty():
            kinds.append(subscriber.get_nowait()["kind"])
        assert "worker.stalled" in kinds
        # Detection is one-shot per transition.
        assert hub.check_stalls() == []

    def test_heartbeat_recovers_a_stalled_worker(self):
        clock = ManualClock()
        hub = obs_live.activate(clock=clock, monitor=False)
        hub.ingest({"kind": "chunk.start", "pid": 7, "chunk": 0,
                    "pairs": 4})
        clock.now += 6.0
        hub.check_stalls()
        hub.ingest({"kind": "pair.done", "pid": 7, "chunk": 0,
                    "pair": "a@b"})
        assert obs_metrics.gauge("executor.worker.stalled").value == 0.0
        kinds = [e["kind"] for e in hub.recent_events()]
        assert "worker.recovered" in kinds

    def test_idle_worker_is_not_a_stall(self):
        # A worker with no chunk assigned is idle, not stalled.
        clock = ManualClock()
        hub = obs_live.activate(clock=clock, monitor=False)
        hub.ingest({"kind": "chunk.done", "pid": 9, "chunk": 0, "pairs": 1})
        clock.now += 60.0
        assert hub.check_stalls() == []


class TestEventBus:
    def test_subscribers_receive_published_events(self):
        hub = obs_live.activate(monitor=False)
        subscriber = hub.subscribe(replay=False)
        hub.publish("custom", value=1)
        event = subscriber.get_nowait()
        assert event["kind"] == "custom" and event["value"] == 1
        assert event["seq"] >= 1
        hub.unsubscribe(subscriber)
        hub.publish("after", value=2)
        assert subscriber.empty()

    def test_replay_delivers_the_ring_buffer(self):
        hub = obs_live.activate(monitor=False)
        hub.publish("early", value=1)
        subscriber = hub.subscribe(replay=True)
        assert subscriber.get_nowait()["kind"] == "early"

    def test_ring_buffer_is_bounded(self):
        hub = obs_live.LiveHub(max_events=4)
        for index in range(10):
            hub.publish("tick", index=index)
        events = hub.recent_events()
        assert len(events) == 4
        assert events[-1]["index"] == 9


class TestWorkerChannel:
    def test_channel_drains_into_the_hub(self):
        import multiprocessing
        import time

        hub = obs_live.activate(monitor=False)
        channel = obs_live.WorkerChannel(hub, multiprocessing.get_context())
        try:
            obs_live.emit_worker_event(
                channel.queue, "pair.done", pair="a@b"
            )
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if hub.status()["workers"]:
                    break
                time.sleep(0.01)
            assert hub.status()["workers"]
        finally:
            channel.close()


class TestExecutorIntegration:
    @pytest.fixture()
    def sweep_pairs(self):
        return [
            (workload, machine)
            for workload in ("505.mcf_r", "519.lbm_r", "525.x264_r")
            for machine in ("skylake-i7-6700", "xeon-e5-2650v4")
        ]

    def _run(self, pairs, jobs=2):
        from repro.perf.executor import ProfilingExecutor
        from repro.perf.profiler import Profiler

        profiler = Profiler(engine="trace")
        executor = ProfilingExecutor(profiler, jobs=jobs)
        return executor.run(pairs)

    def test_in_process_sweep_heartbeats_into_the_hub(self, sweep_pairs):
        # jobs=1 runs its chunks in this process, which reports to the
        # hub directly rather than through a worker channel.
        hub = obs_live.activate(monitor=False)
        self._run(sweep_pairs, jobs=1)
        status = hub.status()
        assert status["workers"], "in-process chunks never heartbeat"
        assert sum(w["pairs_done"] for w in status["workers"]) == len(
            sweep_pairs
        )
        kinds = {e["kind"] for e in hub.recent_events()}
        assert {"chunk.start", "pair.done", "chunk.done"} <= kinds
        assert status["inflight_chunks"] == {}

    def test_process_sweep_ships_events_over_the_channel(self, sweep_pairs):
        # --serve-port implies obs on (the CLI sets it), which is what
        # arms the gated trace_cache.* counters inside the workers.
        obs.enable()
        hub = obs_live.activate(monitor=False)
        self._run(sweep_pairs, jobs=2)
        status = hub.status()
        assert status["workers"], "process workers never heartbeat"
        kinds = {e["kind"] for e in hub.recent_events()}
        assert "chunk.done" in kinds
        # Worker-side gated counters rode back with the chunk results
        # into the parent registry: every chunk synthesizes into a
        # fresh table, so its trace lookups are misses.
        assert status["counters"]["trace_cache.miss"] > 0

    def test_hub_on_results_identical_to_hub_off(self, sweep_pairs):
        baseline = self._run(sweep_pairs)
        obs_live.activate(monitor=False)
        observed = self._run(sweep_pairs)
        for expected, actual in zip(baseline, observed):
            assert expected.metrics == actual.metrics

    def test_serial_profile_heartbeats(self):
        from repro.perf.profiler import Profiler

        hub = obs_live.activate(monitor=False)
        Profiler(engine="analytic").profile("505.mcf_r", "skylake-i7-6700")
        kinds = [e["kind"] for e in hub.recent_events()]
        assert "pair.done" in kinds

    def test_served_pool_sweep_starts_no_manager_process(
        self, sweep_pairs, monkeypatch
    ):
        # Worker heartbeats ride a plain queue of the pool's context,
        # handed to each worker once by the pool initializer.
        import multiprocessing
        import multiprocessing.context

        def no_manager(*_args, **_kwargs):
            raise AssertionError("a served sweep started a manager process")

        monkeypatch.setattr(multiprocessing, "Manager", no_manager)
        monkeypatch.setattr(
            multiprocessing.context.BaseContext, "Manager", no_manager
        )
        hub = obs_live.activate(monitor=False)
        self._run(sweep_pairs, jobs=2)
        workers = hub.status()["workers"]
        # Every heartbeat is folded in by the time the sweep returns.
        assert sum(w["pairs_done"] for w in workers) == len(sweep_pairs)
        assert all(w["chunk"] is None for w in workers)

    @pytest.mark.parametrize("method", ("spawn", "forkserver"))
    def test_heartbeats_arrive_under_every_start_method(
        self, sweep_pairs, monkeypatch, method
    ):
        # The queue reaches each worker through the pool initializer's
        # arguments, which spawn and forkserver workers get pickled.
        import multiprocessing

        context = multiprocessing.get_context(method)
        monkeypatch.setattr(
            multiprocessing, "get_context", lambda *_args: context
        )
        hub = obs_live.activate(monitor=False)
        self._run(sweep_pairs[:2], jobs=2)
        workers = hub.status()["workers"]
        assert sum(w["pairs_done"] for w in workers) == 2

    @pytest.mark.parametrize(
        "jobs, crash", [(1, "raise"), (2, "raise"), (2, "exit")]
    )
    def test_failed_sweep_leaves_nothing_live(
        self, sweep_pairs, monkeypatch, jobs, crash
    ):
        import os

        from repro.errors import ExecutionError
        from repro.perf import executor as executor_module

        real = executor_module.compute_reports

        def flaky(spec, configs, engine_config, table):
            if spec.name == "519.lbm_r":
                if crash == "exit":
                    os._exit(3)  # the worker dies and the pool breaks
                raise RuntimeError("simulated engine crash")
            return real(spec, configs, engine_config, table)

        monkeypatch.setattr(executor_module, "compute_reports", flaky)
        hub = obs_live.activate(monitor=False)
        with pytest.raises(ExecutionError):
            self._run(sweep_pairs, jobs=jobs)
        status = hub.status()
        assert status["active"] is False
        assert status["sweeps"] == []
        assert status["inflight_chunks"] == {}
        kinds = [e["kind"] for e in hub.recent_events()]
        assert "sweep.close" in kinds
