"""Named counters, gauges and histograms for the profiling pipeline.

Instruments such as ``profiler.cache.hit`` or
``cluster.distance_evals`` are created on demand from a process-wide
registry and aggregated across threads::

    from repro.obs import metrics

    metrics.incr("profiler.cache.miss")          # gated on obs enabled
    hits = metrics.counter("profiler.cache.hit") # always-live handle
    hits.add()

Two usage tiers, matching the zero-cost-when-off contract:

* The module-level helpers :func:`incr`, :func:`observe` and
  :func:`set_gauge` are **gated**: while observability is disabled they
  return immediately after one branch, touching no locks or dicts.
* Instrument objects obtained from :func:`counter` / :func:`gauge` /
  :func:`histogram` are **always live**, for features that must work
  regardless of mode (e.g. ``Profiler.cache_info()``).  A mutation is
  one lock acquire plus an arithmetic update.

:func:`snapshot` renders the registry as a plain, deterministic,
JSON-serializable dict for export and manifests.
"""

from __future__ import annotations

import bisect
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs import trace as _trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKET_BOUNDS",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "incr",
    "set_gauge",
    "adjust_gauge",
    "observe",
    "snapshot",
    "reset",
]


def _log_spaced_bounds(
    low_exponent: int = -6, high_exponent: int = 4, per_decade: int = 4
) -> Tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds (``10**low`` .. ``10**high``)."""
    steps = (high_exponent - low_exponent) * per_decade
    return tuple(
        10.0 ** (low_exponent + i / per_decade) for i in range(steps + 1)
    )


#: Shared histogram bucket boundaries: 1 µs to 10 ks, four per decade.
#: Fixed (not adaptive) so two runs of the same workload always bucket
#: identically and baselines can compare percentile estimates directly.
DEFAULT_BUCKET_BOUNDS = _log_spaced_bounds()


class Counter:
    """A monotonically increasing, thread-safe numeric total."""

    __slots__ = ("name", "_lock", "_value", "_touched")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._touched = False

    def add(self, amount: float = 1.0) -> None:
        """Increase the counter (negative amounts are rejected)."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount
            self._touched = True

    @property
    def value(self) -> float:
        """The accumulated total."""
        return self._value

    @property
    def touched(self) -> bool:
        """Whether the counter was written since creation/last reset."""
        return self._touched

    def reset(self) -> None:
        """Zero the counter (test/run-boundary hook)."""
        with self._lock:
            self._value = 0.0
            self._touched = False


class Gauge:
    """A thread-safe last-value-wins instrument."""

    __slots__ = ("name", "_lock", "_value", "_touched")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0.0
        self._touched = False

    def set(self, value: float) -> None:
        """Record the current level."""
        with self._lock:
            self._value = float(value)
            self._touched = True

    def adjust(self, delta: float) -> float:
        """Shift the level by ``delta`` (e.g. in-flight task tracking);
        returns the new level."""
        with self._lock:
            self._value += float(delta)
            self._touched = True
            return self._value

    @property
    def value(self) -> float:
        """The most recently recorded level."""
        return self._value

    @property
    def touched(self) -> bool:
        """Whether the gauge was written since creation/last reset."""
        return self._touched

    def reset(self) -> None:
        """Zero the gauge (test/run-boundary hook)."""
        with self._lock:
            self._value = 0.0
            self._touched = False


class Histogram:
    """Thread-safe summary statistics plus a fixed-bucket distribution.

    Keeps count / sum / min / max (hence mean) and a bank of fixed
    log-spaced buckets (:data:`DEFAULT_BUCKET_BOUNDS`), so p50/p95/p99
    estimates and an OpenMetrics bucket series exist without any
    dependency and without storing raw observations.  Percentiles are
    interpolated within their bucket and clamped to the observed
    min/max, so they are exact for single-valued distributions and
    within one bucket width otherwise.
    """

    __slots__ = (
        "name",
        "_lock",
        "count",
        "total",
        "minimum",
        "maximum",
        "bounds",
        "_bucket_counts",
    )

    def __init__(
        self,
        name: str = "",
        bounds: Sequence[float] = DEFAULT_BUCKET_BOUNDS,
    ) -> None:
        self.name = name
        self._lock = threading.Lock()
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One slot per bound (values <= bound) plus a final overflow slot.
        self._bucket_counts: List[int] = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self.count += 1
            self.total += value
            self._bucket_counts[index] += 1
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def _percentile_locked(self, quantile: float) -> Optional[float]:
        if not self.count:
            return None
        target = quantile * self.count
        cumulative = 0.0
        for index, bucket_count in enumerate(self._bucket_counts):
            if not bucket_count:
                continue
            before = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                low = self.bounds[index - 1] if index > 0 else 0.0
                high = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.maximum
                )
                low = max(low, self.minimum)
                high = min(high, self.maximum)
                if high <= low:
                    return low
                fraction = max(target - before, 0.0) / bucket_count
                return low + fraction * (high - low)
        return self.maximum

    def percentile(self, quantile: float) -> Optional[float]:
        """Estimated value at ``quantile`` in [0, 1]; ``None`` if empty."""
        if not 0.0 <= quantile <= 1.0:
            raise ValueError(f"quantile {quantile!r} outside [0, 1]")
        with self._lock:
            return self._percentile_locked(quantile)

    def bucket_counts(self) -> List[Tuple[Optional[float], int]]:
        """Non-empty ``(upper_bound, count)`` pairs; ``None`` = overflow."""
        with self._lock:
            counts = list(self._bucket_counts)
        pairs: List[Tuple[Optional[float], int]] = [
            (self.bounds[i], n) for i, n in enumerate(counts[:-1]) if n
        ]
        if counts[-1]:
            pairs.append((None, counts[-1]))
        return pairs

    def summary(self) -> dict:
        """The statistics (including percentiles and buckets) as a dict.

        ``buckets`` lists only non-empty buckets as ``[upper_bound,
        count]`` pairs (the overflow bucket's bound is ``null``), so
        manifests stay compact while the OpenMetrics renderer can still
        reconstruct the cumulative series.
        """
        with self._lock:
            counts = list(self._bucket_counts)
            result = {
                "count": self.count,
                "sum": self.total,
                "min": self.minimum,
                "max": self.maximum,
                "mean": self.mean,
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }
        buckets = [
            [self.bounds[i], n] for i, n in enumerate(counts[:-1]) if n
        ]
        if counts[-1]:
            buckets.append([None, counts[-1]])
        result["buckets"] = buckets
        return result

    def reset(self) -> None:
        """Drop all observations (test/run-boundary hook)."""
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.minimum = None
            self.maximum = None
            self._bucket_counts = [0] * (len(self.bounds) + 1)


class MetricsRegistry:
    """Create-on-demand store of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created if new)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created if new)."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created if new)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    def snapshot(self) -> dict:
        """All instruments as a sorted, JSON-serializable dict.

        Instruments never written since creation or the last
        :meth:`reset` are omitted: handles survive a reset (see the
        class docstrings), so without this filter every name ever
        registered would haunt later snapshots as a zero-valued
        series — and two stale names can even sanitize to the same
        OpenMetrics family and render an invalid exposition.
        """
        with self._lock:
            counters = {
                n: c.value
                for n, c in sorted(self._counters.items())
                if c.touched
            }
            gauges = {
                n: g.value
                for n, g in sorted(self._gauges.items())
                if g.touched
            }
            histograms = {
                n: h.summary()
                for n, h in sorted(self._histograms.items())
                if h.count > 0
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def reset(self) -> None:
        """Zero every instrument (instrument handles stay valid)."""
        with self._lock:
            instruments = (
                list(self._counters.values())
                + list(self._gauges.values())
                + list(self._histograms.values())
            )
        for instrument in instruments:
            instrument.reset()


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry."""
    return _REGISTRY


def counter(name: str) -> Counter:
    """An always-live counter handle from the process registry."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """An always-live gauge handle from the process registry."""
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """An always-live histogram handle from the process registry."""
    return _REGISTRY.histogram(name)


def incr(name: str, amount: float = 1.0) -> None:
    """Increment a registry counter; no-op while obs is disabled."""
    if not _trace.enabled():
        return
    _REGISTRY.counter(name).add(amount)


def set_gauge(name: str, value: float) -> None:
    """Set a registry gauge; no-op while obs is disabled."""
    if not _trace.enabled():
        return
    _REGISTRY.gauge(name).set(value)


def adjust_gauge(name: str, delta: float) -> None:
    """Shift a registry gauge; no-op while obs is disabled."""
    if not _trace.enabled():
        return
    _REGISTRY.gauge(name).adjust(delta)


def observe(name: str, value: float) -> None:
    """Record a histogram observation; no-op while obs is disabled."""
    if not _trace.enabled():
        return
    _REGISTRY.histogram(name).observe(value)


def snapshot() -> dict:
    """Snapshot of the process registry."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Zero every instrument in the process registry."""
    _REGISTRY.reset()
