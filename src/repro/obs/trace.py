"""Thread-safe span tracing for the profiling pipeline.

A *span* is a named, timed region of execution with attached
attributes::

    with span("profile", workload="505.mcf_r", machine="skylake-i7-6700"):
        ...

Spans nest: a span opened while another is active on the same thread
becomes its child, so a full run produces a forest of span trees (one
root per top-level region per thread).  Each span records wall time and
CPU (process) time plus arbitrary key/value attributes.

Design constraints (see DESIGN.md, "Observability"):

* **Zero cost when off.**  Tracing is disabled by default; ``span()``
  then returns a shared no-op context manager after one branch.  No
  clock is read, no object is allocated.
* **Deterministic in tests.**  The wall/CPU clocks are injectable via
  :class:`Clock`, so span trees (and the manifests derived from them)
  can be made byte-for-byte reproducible.
* **Thread safe.**  Every thread keeps its own span stack; finished
  root spans are appended to a process-wide list under a lock.
* **Cross-process.**  Each span carries a process-wide unique id and
  the recording pid; :func:`current_context` captures a picklable
  :class:`TraceContext` (trace id, parent span id, pid) that executor
  payloads ship to pool workers.  Workers record into a local buffer
  between :func:`begin_remote_capture` / :func:`end_remote_capture`
  and ship serialized span trees back, which
  :func:`adopt_remote_spans` merges into the parent forest.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence

__all__ = [
    "Clock",
    "Span",
    "TraceContext",
    "enable",
    "disable",
    "enabled",
    "reset",
    "span",
    "current_span",
    "current_context",
    "begin_remote_capture",
    "end_remote_capture",
    "adopt_remote_spans",
    "finished_roots",
]


class Clock:
    """An injectable pair of monotonic wall/CPU time sources.

    The default reads :func:`time.perf_counter` and
    :func:`time.process_time`.  Tests inject deterministic callables to
    make span timings (and everything derived from them) reproducible.
    """

    def __init__(
        self,
        wall: Callable[[], float] = time.perf_counter,
        cpu: Callable[[], float] = time.process_time,
    ) -> None:
        self.wall = wall
        self.cpu = cpu


class TraceContext(NamedTuple):
    """Picklable handle to a live span, shipped across process
    boundaries inside executor payloads."""

    trace_id: int
    span_id: int
    pid: int


class Span:
    """One timed, attributed region; a node of the span tree."""

    __slots__ = (
        "name",
        "attributes",
        "wall_start",
        "wall_end",
        "cpu_start",
        "cpu_end",
        "children",
        "thread_id",
        "span_id",
        "parent_id",
        "pid",
    )

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self.name = name
        self.attributes = attributes
        self.wall_start = 0.0
        self.wall_end = 0.0
        self.cpu_start = 0.0
        self.cpu_end = 0.0
        self.children: List["Span"] = []
        self.thread_id = 0
        self.span_id = 0
        self.parent_id = 0
        self.pid = 0

    @property
    def wall_time(self) -> float:
        """Elapsed wall-clock seconds inside the span."""
        return self.wall_end - self.wall_start

    @property
    def cpu_time(self) -> float:
        """Elapsed process-CPU seconds inside the span."""
        return self.cpu_end - self.cpu_start

    def set(self, **attributes: object) -> "Span":
        """Attach (or overwrite) attributes on the live span."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """The span and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-serializable form (times in seconds, nested children)."""
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "wall_start": self.wall_start,
            "wall_time": self.wall_time,
            "cpu_time": self.cpu_time,
            "thread_id": self.thread_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "pid": self.pid,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output (used to
        adopt spans shipped back from pool workers)."""
        record = cls(data["name"], dict(data.get("attributes", {})))
        record.wall_start = data.get("wall_start", 0.0)
        record.wall_end = record.wall_start + data.get("wall_time", 0.0)
        record.cpu_start = 0.0
        record.cpu_end = data.get("cpu_time", 0.0)
        record.thread_id = data.get("thread_id", 0)
        record.span_id = data.get("span_id", 0)
        record.parent_id = data.get("parent_id", 0)
        record.pid = data.get("pid", 0)
        record.children = [
            cls.from_dict(child) for child in data.get("children", ())
        ]
        return record

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, wall={self.wall_time:.6f}s, "
            f"children={len(self.children)})"
        )


class _State:
    """Process-wide tracer state."""

    def __init__(self) -> None:
        self.enabled = False
        self.clock = Clock()
        self.lock = threading.Lock()
        self.roots: List[Span] = []
        self.local = threading.local()
        # Span ids are small sequential ints so traces stay
        # deterministic under an injected clock; itertools.count is
        # atomic under the GIL, so the hot enter path stays lock-free.
        self.ids = itertools.count(1)
        self.trace_id = 1
        self.remote_parent: Optional[TraceContext] = None

    def stack(self) -> List[Span]:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = []
            self.local.stack = stack
        return stack


_STATE = _State()


class _NullSpan:
    """Shared no-op stand-in returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc: object) -> None:
        return None

    def set(self, **_attributes: object) -> "_NullSpan":
        """No-op attribute setter (keeps call sites unconditional)."""
        return self


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager that opens/closes one real :class:`Span`."""

    __slots__ = ("_span", "_is_root")

    def __init__(self, name: str, attributes: Dict[str, object]) -> None:
        self._span = Span(name, attributes)
        self._is_root = False

    def __enter__(self) -> Span:
        state = _STATE
        record = self._span
        record.thread_id = threading.get_ident()
        record.span_id = next(state.ids)
        record.pid = os.getpid()
        stack = state.stack()
        self._is_root = not stack
        if stack:
            parent = stack[-1]
            parent.children.append(record)
            record.parent_id = parent.span_id
        stack.append(record)
        record.cpu_start = state.clock.cpu()
        record.wall_start = state.clock.wall()
        return record

    def __exit__(self, *_exc: object) -> None:
        state = _STATE
        record = self._span
        record.wall_end = state.clock.wall()
        record.cpu_end = state.clock.cpu()
        stack = state.stack()
        if stack and stack[-1] is record:
            stack.pop()
        if self._is_root:
            with state.lock:
                state.roots.append(record)


def enable(clock: Optional[Clock] = None) -> None:
    """Turn tracing on (optionally with an injected clock) and clear
    any previously collected spans."""
    reset()
    if clock is not None:
        _STATE.clock = clock
    _STATE.enabled = True


def disable() -> None:
    """Turn tracing off; collected spans stay readable until reset."""
    _STATE.enabled = False


def enabled() -> bool:
    """Whether tracing is currently on."""
    return _STATE.enabled


def reset(clock: Optional[Clock] = None) -> None:
    """Drop all collected spans (and any live stacks on this thread).

    Also restarts the span-id counter so two runs under the same
    injected clock produce byte-identical span trees.
    """
    with _STATE.lock:
        _STATE.roots = []
    _STATE.local = threading.local()
    _STATE.ids = itertools.count(1)
    _STATE.trace_id += 1
    _STATE.remote_parent = None
    if clock is not None:
        _STATE.clock = clock


def span(name: str, **attributes: object):
    """Open a traced region; no-op while tracing is disabled.

    Returns a context manager; entering it yields the live
    :class:`Span` (or a shared null object when disabled), so call
    sites may unconditionally ``with span(...) as s: s.set(k=v)``.
    """
    if not _STATE.enabled:
        return _NULL_SPAN
    return _LiveSpan(name, attributes)


def current_span() -> Optional[Span]:
    """The innermost live span on the calling thread, if any."""
    stack = _STATE.stack()
    return stack[-1] if stack else None


def current_context() -> Optional[TraceContext]:
    """A picklable handle to the innermost live span, or ``None``.

    Ship this inside executor payloads; pool workers bracket their
    work with :func:`begin_remote_capture` / :func:`end_remote_capture`.
    """
    if not _STATE.enabled:
        return None
    record = current_span()
    if record is None:
        return None
    return TraceContext(_STATE.trace_id, record.span_id, os.getpid())


def begin_remote_capture(
    context: TraceContext, clock: Optional[Clock] = None
) -> None:
    """Start recording spans in a worker process.

    Fork-started workers inherit the parent's tracer state wholesale —
    enabled flag, id counter, *and* accumulated roots — so this resets
    first; otherwise the worker would ship the parent's own spans back
    as its own.  Worker span ids restart at 1 and are only meaningful
    relative to the worker's pid.
    """
    reset(clock)
    _STATE.remote_parent = context
    _STATE.enabled = True


def end_remote_capture() -> List[dict]:
    """Stop worker-side recording; return serialized span trees.

    Each returned root carries ``parent_id`` pointing at the parent
    process's span from the initiating :class:`TraceContext`, ready for
    :func:`adopt_remote_spans` on the other side.
    """
    context = _STATE.remote_parent
    _STATE.enabled = False
    roots = finished_roots()
    if context is not None:
        for root in roots:
            root.parent_id = context.span_id
    payload = [root.to_dict() for root in roots]
    reset()
    return payload


def adopt_remote_spans(parent: Optional[Span],
                       payload: Sequence[dict]) -> List[Span]:
    """Merge serialized worker spans under ``parent`` (or as roots).

    Returns the adopted spans.  Worker wall timestamps come from
    ``time.perf_counter`` (CLOCK_MONOTONIC on Linux), so they are
    directly comparable with the parent's timeline.
    """
    adopted = [Span.from_dict(data) for data in payload]
    if not adopted:
        return adopted
    with _STATE.lock:
        if parent is not None:
            parent.children.extend(adopted)
        else:
            _STATE.roots.extend(adopted)
    return adopted


def finished_roots() -> List[Span]:
    """Snapshot of the completed root spans, in completion order."""
    with _STATE.lock:
        return list(_STATE.roots)
