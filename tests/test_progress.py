"""Hook and heartbeat semantics of repro.obs.progress.

The heartbeat contract the sweep drivers rely on:

* an installed hook receives heartbeats even while tracing is disabled
  (that is how benchmarks and tests observe progress deterministically);
* ``ticks=N`` coalesces a long loop into ~N bounded emissions;
* ``close()`` emits the final line exactly once — never zero times,
  never twice, no matter how the loop ended;
* ``done`` can never exceed ``total`` (overshooting ``advance(amount)``
  is clamped) and ``total == 0`` counts freely without dividing;
* while a hook or tracing observes the loop, the rate is a windowed
  EWMA, so bursts of completions do not inflate it and the ETA tracks
  the current throughput;
* the default stderr heartbeat carries rate and ETA.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.progress import Progress, _format_heartbeat, set_heartbeat_hook


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    set_heartbeat_hook(None)
    yield
    obs.disable()
    obs.reset()
    obs.metrics.reset()
    set_heartbeat_hook(None)


class TestHookSemantics:
    def test_hook_fires_while_tracing_disabled(self):
        assert not obs.enabled()
        beats = []
        set_heartbeat_hook(
            lambda label, done, total: beats.append((label, done, total))
        )
        ticker = Progress("sweep", total=4, ticks=2)
        for _ in range(4):
            ticker.advance()
        ticker.close()
        assert beats
        assert beats[-1] == ("sweep", 4, 4)

    def test_tick_coalescing_bounds_emissions(self):
        beats = []
        set_heartbeat_hook(lambda label, done, total: beats.append(done))
        ticker = Progress("sweep", total=1000, ticks=10)
        for _ in range(1000):
            ticker.advance()
        ticker.close()
        assert len(beats) <= 11
        assert beats[-1] == 1000

    def test_close_emits_final_line_when_loop_ends_between_ticks(self):
        beats = []
        set_heartbeat_hook(lambda label, done, total: beats.append(done))
        ticker = Progress("sweep", total=1000, ticks=10)
        # 950 lands between the 900 and 1000 ticks; only close() can
        # report it.
        for _ in range(950):
            ticker.advance()
        ticker.close()
        assert beats[-1] == 950

    def test_close_never_duplicates_the_final_line(self):
        beats = []
        set_heartbeat_hook(lambda label, done, total: beats.append(done))
        ticker = Progress("sweep", total=10, ticks=10)
        for _ in range(10):
            ticker.advance()  # the last advance emits done == total
        ticker.close()
        ticker.close()  # idempotent
        assert beats.count(10) == 1

    def test_close_emits_exactly_once_for_empty_loop(self):
        beats = []
        set_heartbeat_hook(
            lambda label, done, total: beats.append((done, total))
        )
        ticker = Progress("empty", total=5)
        ticker.close()
        ticker.close()
        assert beats == [(0, 5)]


class ManualClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def hooked():
    """Observe heartbeats through a hook, which folds the rate."""
    set_heartbeat_hook(lambda label, done, total: None)


class TestRateAndEta:
    def test_rate_and_eta_with_injected_clock(self, hooked):
        clock = ManualClock()
        tracker = Progress("sweep", total=100, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            tracker.advance()
        assert tracker.done == 10
        assert tracker.rate_per_second == pytest.approx(1.0, rel=0.05)
        assert tracker.eta_seconds() == pytest.approx(90.0, rel=0.1)

    def test_burst_completions_do_not_inflate_the_rate(self, hooked):
        # Chunk collection reports every pair of a chunk microseconds
        # apart; the windowed EWMA must measure real throughput, not
        # the burst's instantaneous rate.
        clock = ManualClock()
        tracker = Progress("sweep", total=1000, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            for _ in range(10):  # a 10-pair chunk lands "at once"
                tracker.advance()
                clock.now += 1e-6
        assert tracker.rate_per_second == pytest.approx(10.0, rel=0.1)

    def test_rate_tracks_current_throughput_not_the_lifetime_mean(
        self, hooked
    ):
        # 10 s at 1/s, then 10 s at 10/s: the lifetime mean is 5.5/s,
        # the current throughput 10/s.
        clock = ManualClock()
        tracker = Progress("sweep", total=1000, clock=clock)
        for _ in range(10):
            clock.now += 1.0
            tracker.advance()
        for _ in range(100):
            clock.now += 0.1
            tracker.advance()
        assert tracker.rate_per_second > 9.0


class TestClampingAndZeroTotal:
    def test_overshooting_advance_is_clamped(self):
        beats = []
        set_heartbeat_hook(lambda label, done, total: beats.append(done))
        ticker = Progress("batch", total=10, ticks=10)
        ticker.advance(7)
        ticker.advance(7)  # 14 > total: must clamp, not report 14
        ticker.close()
        assert ticker.done == 10
        assert all(done <= 10 for done in beats)
        assert beats[-1] == 10

    def test_zero_total_counts_freely(self):
        beats = []
        set_heartbeat_hook(
            lambda label, done, total: beats.append((done, total))
        )
        ticker = Progress("unknown", total=0)
        for _ in range(3):
            ticker.advance()
        ticker.close()
        assert ticker.done == 3
        assert beats[-1] == (3, 0)

    def test_clamp_applies_while_fully_disabled_too(self):
        ticker = Progress("batch", total=5)
        ticker.advance(9)
        assert ticker.done == 5


class TestStderrHeartbeat:
    def test_format_carries_rate_and_eta(self):
        line = _format_heartbeat("profile-sweep", 280, 560, 6.65)
        assert line.startswith("[profile-sweep] 280/560 50%")
        assert "/s" in line
        assert "eta" in line

    def test_format_omits_eta_when_done(self):
        line = _format_heartbeat("sweep", 560, 560, 56.0)
        assert "eta" not in line
        assert "56.0/s" in line

    def test_format_zero_total_renders_without_dividing(self):
        assert _format_heartbeat("loop", 3, 0, 0.0) == "[loop] 3 done"

    def test_stderr_heartbeat_under_tracing(self, capsys):
        clock_value = [0.0]

        def clock():
            clock_value[0] += 1.0
            return clock_value[0]

        obs.enable()
        ticker = Progress("sweep", total=4, ticks=2, clock=clock)
        for _ in range(4):
            ticker.advance()
        ticker.close()
        err = capsys.readouterr().err
        assert "[sweep] 4/4 100%" in err
        assert "/s" in err

    def test_silent_when_disabled_and_unhooked(self, capsys):
        ticker = Progress("loop", total=50)
        for _ in range(50):
            ticker.advance()
        ticker.close()
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
