"""Structured tracing: nestable spans over a thread-safe ring buffer.

A *span* is one timed region — ``span("dhop", backend="generic256")``
— with a monotonic start/end (``time.perf_counter``), the recording
thread, a parent link (spans nest through a ``ContextVar``, so nesting
is correct per thread and per async task), and free-form attributes.
An *event* is a zero-duration span (solver restarts, fault-campaign
detections, halo completions).

Recording is governed by the ``telemetry`` field of the scoped
:class:`~repro.engine.policy.ExecutionPolicy`:

* ``"off"`` — :func:`span` returns one shared no-op context manager
  (:data:`NULL_SPAN`).  **No allocation, no buffer touch** — the cost
  of an instrumented seam is a single resolved-policy flag check,
  which the overhead test pins by counting :class:`Span`
  constructions.
* ``"trace"`` — spans land in the global ring buffer
  (:data:`_TRACE_BUFFER`), bounded so week-long runs cannot grow
  memory without bound; the exporters in
  :mod:`repro.telemetry.export` drain it to JSONL / Chrome
  ``trace_event`` / whatever the consumer wants.

Telemetry *observes*: nothing here feeds back into any computation,
so results are bit-identical with tracing on or off (asserted across
vector lengths by ``tests/telemetry/test_bit_identity.py``).

Mutating the module globals below directly (rather than through the
recording API) is banned by ``tools/lint_execution_globals.py``
everywhere outside ``src/repro/telemetry/``.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Optional

from repro.engine.policy import current_policy

#: Ring-buffer capacity: at ~200 bytes/span this bounds the buffer to
#: a few tens of MB however long the run.
DEFAULT_CAPACITY = 65536

_IDS = itertools.count(1)


@dataclass
class Span:
    """One recorded timed region (or instant event when ``t0 == t1``).

    Times are ``time.perf_counter`` seconds — monotonic, comparable
    only within one process, which is all the derived reports need.
    """

    name: str
    t0: float
    t1: float = 0.0
    span_id: int = 0
    parent_id: int = 0
    thread: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> dict:
        return {
            "name": self.name, "t0": self.t0, "t1": self.t1,
            "span_id": self.span_id, "parent_id": self.parent_id,
            "thread": self.thread, "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(name=d["name"], t0=d["t0"], t1=d["t1"],
                   span_id=d.get("span_id", 0),
                   parent_id=d.get("parent_id", 0),
                   thread=d.get("thread", ""),
                   attrs=d.get("attrs", {}))


class TraceBuffer:
    """Thread-safe bounded span store (oldest spans drop first)."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self._lock = threading.Lock()
        self._spans: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    def snapshot(self) -> list:
        """The buffered spans, oldest first (buffer unchanged)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> list:
        """Remove and return every buffered span."""
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
            return out

    def clear(self) -> int:
        with self._lock:
            n = len(self._spans)
            self._spans.clear()
            self.dropped = 0
            return n

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The process-global span store (mutate only through this module).
_TRACE_BUFFER = TraceBuffer()

#: The innermost open span of this thread/task, for parent links.
_ACTIVE_SPAN: ContextVar[Optional[int]] = ContextVar(
    "repro_telemetry_active_span", default=None
)


def tracing() -> bool:
    """True when spans are being recorded (``telemetry="trace"``)."""
    return current_policy().telemetry == "trace"


def metrics_on() -> bool:
    """True when the metrics registry is fed (``"metrics"`` or
    ``"trace"``)."""
    return current_policy().telemetry != "off"


class _NullSpan:
    """The shared disabled-mode context manager: no state, no
    allocation — ``span()`` with telemetry off always returns the one
    instance of this class."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NULL_SPAN = _NullSpan()


class _OpenSpan:
    """An in-flight span: records itself into the buffer on exit."""

    __slots__ = ("span", "_token")

    def __init__(self, name: str, attrs: dict) -> None:
        self.span = Span(
            name=name, t0=time.perf_counter(),
            span_id=next(_IDS),
            parent_id=_ACTIVE_SPAN.get() or 0,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        self._token = None

    def __enter__(self) -> Span:
        self._token = _ACTIVE_SPAN.set(self.span.span_id)
        return self.span

    def __exit__(self, *exc) -> bool:
        _ACTIVE_SPAN.reset(self._token)
        self.span.t1 = time.perf_counter()
        _TRACE_BUFFER.append(self.span)
        return False


def span(name: str, **attrs):
    """A context manager timing one region (no-op when tracing is
    off).  Attributes must be JSON-serialisable — they travel into the
    JSONL and Chrome exports verbatim."""
    if current_policy().telemetry != "trace":
        return NULL_SPAN
    return _OpenSpan(name, attrs)


def event(name: str, **attrs) -> None:
    """Record an instant event (zero-duration span) — no-op when
    tracing is off."""
    if current_policy().telemetry != "trace":
        return
    now = time.perf_counter()
    _TRACE_BUFFER.append(Span(
        name=name, t0=now, t1=now, span_id=next(_IDS),
        parent_id=_ACTIVE_SPAN.get() or 0,
        thread=threading.current_thread().name, attrs=attrs,
    ))


def record_span(name: str, t0: float, t1: float, **attrs) -> None:
    """Record a span whose extent was measured by the caller (the
    async comms queue knows a halo's post and completion times better
    than any context manager could) — no-op when tracing is off."""
    if current_policy().telemetry != "trace":
        return
    _TRACE_BUFFER.append(Span(
        name=name, t0=t0, t1=t1, span_id=next(_IDS),
        parent_id=_ACTIVE_SPAN.get() or 0,
        thread=threading.current_thread().name, attrs=attrs,
    ))


def new_span_id() -> int:
    """A fresh span id from the process-global sequence (the merge
    layer builds :class:`Span` objects for rank-shipped records and
    needs ids that cannot collide with locally recorded spans)."""
    return next(_IDS)


def active_span_id() -> int:
    """The innermost open span of this thread/task (0 when none) —
    what merged rank spans parent themselves under."""
    return _ACTIVE_SPAN.get() or 0


def buffer() -> TraceBuffer:
    """The live trace buffer."""
    return _TRACE_BUFFER


def spans() -> list:
    """The buffered spans, oldest first (buffer unchanged)."""
    return _TRACE_BUFFER.snapshot()


def drain_spans() -> list:
    """Remove and return every buffered span (call it before a
    clean-slate ``engine.reset_all()``, which clears the buffer)."""
    return _TRACE_BUFFER.drain()
