"""Progress heartbeats for long sweeps (the 80x7 study driver).

Long loops — the full workload x machine profiling sweep, the
design-space evaluation — report completion through a
:class:`Progress` handle::

    ticker = progress("profile-sweep", total=len(specs) * len(machines))
    for ...:
        ticker.advance()
    ticker.close()

While observability is disabled (the default) and no hook is
installed, every call is a two-branch no-op, so instrumented loops cost
nothing in normal library use.  When enabled, heartbeats go to an
injectable hook (``set_heartbeat_hook``) or, by default, to ``stderr``
at most every 10% of the total with rate and ETA::

    [profile-sweep] 280/560 50% 42.1/s eta 6.6s

so an 80x7 sweep prints ~10 lines rather than 560.

Invariants: ``done`` is clamped to ``total`` (an ``advance(amount)``
overshoot can never report ``done > total``), ``total == 0`` renders
without dividing, and the final heartbeat for a loop is emitted
exactly once — by ``advance`` if the last step lands on a tick,
otherwise by ``close()``.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

from repro.obs import trace as _trace

__all__ = ["Progress", "progress", "set_heartbeat_hook"]

#: Hook signature: (label, done, total) -> None.
HeartbeatHook = Callable[[str, int, int], None]

_HOOK: Optional[HeartbeatHook] = None

#: EWMA smoothing factor for the throughput estimate.
_EWMA_ALPHA = 0.3

#: Minimum seconds of completions folded into one EWMA rate update.
#: Chunk results land in bursts (every pair in a chunk "completes"
#: microseconds apart when the parent collects it), so a per-event
#: rate would be wildly inflated; windowing measures real throughput.
_RATE_WINDOW_S = 0.25


def set_heartbeat_hook(hook: Optional[HeartbeatHook]) -> None:
    """Install (or clear, with ``None``) the heartbeat destination.

    An installed hook receives heartbeats even while tracing is
    disabled, which is how the benchmark harness and tests observe
    progress deterministically.
    """
    global _HOOK
    _HOOK = hook


def _format_heartbeat(label: str, done: int, total: int, rate: float) -> str:
    """One ``[label] done/total pct rate eta`` stderr line."""
    if total <= 0:
        line = f"[{label}] {done} done"
    else:
        percent = 100.0 * done / total
        line = f"[{label}] {done}/{total} {percent:.0f}%"
    if rate > 0.0 and done > 0:
        line += f" {rate:.1f}/s"
        if total > done:
            line += f" eta {(total - done) / rate:.1f}s"
    return line


class Progress:
    """Heartbeats, completion rate and ETA for one named loop.

    Emits at most ``ticks`` heartbeats spread evenly over ``total``
    steps (plus the final one), keeping output bounded regardless of
    loop length.  While observed, ``advance`` also keeps an
    exponentially weighted moving average of the completion rate, so
    the ETA tracks the *current* throughput (cheap analytic pairs
    early, expensive trace pairs late) instead of the lifetime mean.
    The clock is injectable for deterministic tests.  Not thread-safe
    per instance; each loop owns its own handle.
    """

    __slots__ = (
        "label", "total", "done", "started", "_clock", "_step",
        "_next_emit", "_last_emit_done", "_closed",
        "_window_start", "_window_amount", "_rate",
    )

    def __init__(
        self,
        label: str,
        total: int,
        ticks: int = 10,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.label = label
        self.total = max(int(total), 0)
        self.done = 0
        ticks = max(int(ticks), 1)
        self._step = max(self.total // ticks, 1)
        self._next_emit = self._step
        self._clock = clock
        self.started = clock()
        self._window_start = self.started
        self._window_amount = 0
        self._rate = 0.0
        self._last_emit_done: Optional[int] = None
        self._closed = False

    def _clamped(self, done: int) -> int:
        """``done`` clamped to ``total`` (``total == 0`` counts freely:
        a zero total means the loop length was unknown, not empty)."""
        return min(done, self.total) if self.total else done

    def advance(self, amount: int = 1) -> None:
        """Record ``amount`` completed steps, emitting when due.

        ``done`` never exceeds ``total``: an overshooting ``amount``
        (e.g. a final batch larger than the remainder) is clamped, so
        heartbeats can never report ``done > total``.
        """
        self.done = self._clamped(self.done + amount)
        if _HOOK is None and not _trace.enabled():
            return
        self._fold_rate(amount)
        if self.done >= self._next_emit or self.done >= self.total:
            while self._next_emit <= self.done:
                self._next_emit += self._step
            self._emit()

    def _fold_rate(self, amount: int) -> None:
        """Fold ``amount`` completions into the windowed EWMA rate."""
        if amount <= 0:
            return
        now = self._clock()
        self._window_amount += amount
        window = now - self._window_start
        if window >= _RATE_WINDOW_S:
            instantaneous = self._window_amount / window
            if self._rate <= 0.0:
                self._rate = instantaneous
            else:
                self._rate = (
                    _EWMA_ALPHA * instantaneous
                    + (1.0 - _EWMA_ALPHA) * self._rate
                )
            self._window_start = now
            self._window_amount = 0

    @property
    def rate_per_second(self) -> float:
        """Windowed-EWMA completions per second; falls back to the
        lifetime mean while the first window is still open."""
        if self._rate > 0.0:
            return self._rate
        elapsed = self.elapsed_s()
        return self.done / elapsed if elapsed > 0.0 and self.done else 0.0

    def elapsed_s(self) -> float:
        """Seconds since the handle was created."""
        return max(self._clock() - self.started, 0.0)

    def eta_seconds(self) -> Optional[float]:
        """Estimated seconds to completion; ``None`` when unknowable."""
        rate = self.rate_per_second
        if not self.total or self.done >= self.total or rate <= 0.0:
            return None
        return (self.total - self.done) / rate

    def close(self) -> None:
        """End the loop: emit a final heartbeat if due.

        The final line appears exactly once: if the last ``advance``
        already emitted at the current ``done`` (or ``close`` was
        called before), nothing more is printed.
        """
        if self._closed:
            return
        self._closed = True
        if _HOOK is not None or _trace.enabled():
            self._emit()

    def _emit(self) -> None:
        if self._last_emit_done == self.done:
            return
        self._last_emit_done = self.done
        hook = _HOOK
        if hook is not None:
            hook(self.label, self.done, self.total)
        elif _trace.enabled():
            sys.stderr.write(
                _format_heartbeat(
                    self.label, self.done, self.total, self.rate_per_second
                )
                + "\n"
            )


def progress(label: str, total: int, ticks: int = 10) -> Progress:
    """A :class:`Progress` handle for a loop of ``total`` steps."""
    return Progress(label, total, ticks=ticks)
