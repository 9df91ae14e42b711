"""Request tracing: trace contexts, spans, deterministic sampling, ring buffer.

One request through the serving tier crosses a thread (submit), a process
boundary (the worker queue), a sweep shared with its coalesced group
and possibly *another* worker (redispatch after a death).  A
:class:`TraceContext` is the thing that survives all of those hops: a
``trace_id`` plus an append-only list of :class:`Span` records
(name, start, duration, parent, attributes) from which the span tree of the
request — route, admit, queue-wait, coalesce, sweep, per-refinement
iteration, redispatch hops, degraded fallback — is reconstructed.

Design decisions:

* **contextvar propagation in-process** — :func:`activated` installs a trace
  as the ambient context and :func:`span` (the instrumentation primitive
  used by the core solver and refinement driver) attaches to whatever trace
  is ambient, or no-ops when none is.  Instrumented code never imports the
  serving tier and costs one contextvar read when tracing is off.
* **wire propagation across processes** — :meth:`TraceContext.to_wire`
  yields a small picklable dict carried inside the worker request tuple;
  the worker rebuilds the context with :meth:`TraceContext.from_wire`,
  records its spans locally, and ships them back attached to the response
  (:meth:`TraceContext.export_spans` → :meth:`TraceContext.adopt`).
* **deterministic sampling** — whether a trace records spans is a pure
  function of its ``trace_id`` and the sample rate
  (:func:`trace_is_sampled`): the *same* decision falls out on every
  process that sees the id, with no coordination.  The rate comes from the
  ``REPRO_TRACE`` environment variable (``0``..``1``; ``on`` = 1.0) or the
  ``trace_sample_rate`` engine parameter.
* **shared spans** — a coalesced sweep answers N requests with one batched
  solve.  The engine records that work once into a collector context and
  every member trace :meth:`adopts <TraceContext.adopt>` the same span
  dicts: N span trees, one shared ``span_id``, no double-counted work.

Completed traces land in a :class:`TraceBuffer` — a bounded in-memory ring
served by ``GET /trace/<id>`` — which also keeps a slow-request log of
traces whose total duration exceeded its threshold.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import itertools
import os
import threading
import time
import uuid
from collections import OrderedDict, deque

__all__ = ["Span", "TraceContext", "TraceBuffer", "Tracer", "current_trace",
           "activated", "span", "trace_is_sampled", "default_sample_rate",
           "TRACE_ENV_VAR"]

#: environment variable carrying the default sample rate (0..1, or on/off).
TRACE_ENV_VAR = "REPRO_TRACE"

#: ambient trace for the running thread/task (asyncio tasks inherit a copy).
_current: contextvars.ContextVar["TraceContext | None"] = contextvars.ContextVar(
    "repro_trace", default=None)


def default_sample_rate(environ=os.environ) -> float:
    """Sample rate from ``REPRO_TRACE``: a float in [0, 1]; ``on``/``1`` = 1.0;
    unset, ``0`` or ``off`` = 0.0 (tracing disabled)."""
    raw = environ.get(TRACE_ENV_VAR, "").strip().lower()
    if raw in ("", "0", "off", "false", "no"):
        return 0.0
    if raw in ("1", "on", "true", "yes"):
        return 1.0
    try:
        rate = float(raw)
    except ValueError:
        return 0.0
    return min(1.0, max(0.0, rate))


def trace_is_sampled(trace_id: str, rate: float) -> bool:
    """Deterministic sampling decision: pure in ``(trace_id, rate)``.

    Hashes the id so every process that sees a trace agrees on whether it
    records spans, without any negotiation on the wire.
    """
    if rate >= 1.0:
        return True
    if rate <= 0.0:
        return False
    digest = hashlib.sha256(trace_id.encode()).digest()
    return int.from_bytes(digest[:8], "big") < rate * 2.0**64


class Span(dict):
    """One timed operation inside a trace; a plain dict for free pickling.

    Keys: ``span_id``, ``parent_id`` (``None`` for roots), ``name``,
    ``start`` (monotonic stamp), ``duration`` (seconds; ``None`` while
    open) and ``attrs``.
    """

    @property
    def span_id(self) -> str:
        return self["span_id"]

    @property
    def name(self) -> str:
        return self["name"]

    @property
    def duration(self) -> float | None:
        return self["duration"]


class TraceContext:
    """Per-request trace: an id, a sampled flag and the recorded spans.

    An *unsampled* context still exists (its ``trace_id`` correlates event-log
    entries) but records nothing: every span call is a cheap flag check.
    Thread-safe — the front end's collector thread and the submitting
    threads may append concurrently.
    """

    __slots__ = ("trace_id", "sampled", "origin", "created_at", "_spans",
                 "_stack", "_ids", "_lock")

    def __init__(self, trace_id: str | None = None, *, sampled: bool = True,
                 origin: str = "") -> None:
        self.trace_id = trace_id if trace_id is not None else uuid.uuid4().hex
        self.sampled = bool(sampled)
        self.origin = origin
        self.created_at = time.monotonic()
        self._spans: list[Span] = []
        self._stack: list[str] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _next_id(self) -> str:
        return f"{self.trace_id[:8]}-{self.origin or 'fe'}-{next(self._ids)}"

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one timed operation; nests under the enclosing span."""
        if not self.sampled:
            yield None
            return
        start = time.monotonic()
        with self._lock:
            span = Span(span_id=self._next_id(),
                        parent_id=self._stack[-1] if self._stack else None,
                        name=str(name), start=start, duration=None,
                        attrs=dict(attrs))
            self._spans.append(span)
            self._stack.append(span["span_id"])
        try:
            yield span
        finally:
            span["duration"] = time.monotonic() - start
            with self._lock:
                # remove by value: concurrent spans may interleave exits.
                if span["span_id"] in self._stack:
                    self._stack.remove(span["span_id"])

    def add_span(self, name: str, *, start: float | None = None,
                 duration: float = 0.0, parent_id: str | None = None,
                 **attrs) -> Span | None:
        """Record an already-measured operation (e.g. queue-wait)."""
        if not self.sampled:
            return None
        span = Span(span_id=self._next_id(), parent_id=parent_id,
                    name=str(name),
                    start=time.monotonic() if start is None else float(start),
                    duration=float(duration), attrs=dict(attrs))
        with self._lock:
            self._spans.append(span)
        return span

    def adopt(self, spans) -> None:
        """Attach externally recorded spans (worker-side, shared sweeps).

        The span dicts are adopted *by reference*: a sweep span shared by N
        coalesced requests is one object appearing in N traces, identical
        ``span_id`` included.
        """
        if not self.sampled or not spans:
            return
        with self._lock:
            self._spans.extend(Span(span) if not isinstance(span, Span)
                               else span for span in spans)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #
    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def export_spans(self) -> list[dict]:
        """Picklable copies of the recorded spans (for the response wire)."""
        with self._lock:
            return [dict(span) for span in self._spans]

    def to_wire(self) -> dict:
        """Minimal propagation payload for the worker request tuple."""
        return {"trace_id": self.trace_id, "sampled": self.sampled,
                "enqueued_at": time.monotonic()}

    @classmethod
    def from_wire(cls, wire: dict | None, *,
                  origin: str = "") -> "TraceContext | None":
        if not wire:
            return None
        return cls(wire["trace_id"], sampled=wire.get("sampled", False),
                   origin=origin)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceContext({self.trace_id[:8]}, sampled={self.sampled}, "
                f"spans={len(self._spans)})")


# ---------------------------------------------------------------------- #
# ambient-context helpers (the instrumentation surface for core code)
# ---------------------------------------------------------------------- #
def current_trace() -> TraceContext | None:
    """The ambient trace of this thread/task (``None`` outside any)."""
    return _current.get()


@contextlib.contextmanager
def activated(trace: TraceContext | None):
    """Install ``trace`` as the ambient context for the ``with`` body."""
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)


@contextlib.contextmanager
def span(name: str, **attrs):
    """Span on the ambient trace; a no-op (one contextvar read) without one.

    This is what the core solver and refinement loop call — they never know
    whether a serving tier, a benchmark or nothing at all is tracing them.
    """
    trace = _current.get()
    if trace is None or not trace.sampled:
        yield None
        return
    with trace.span(name, **attrs) as entry:
        yield entry


# ---------------------------------------------------------------------- #
# completed-trace storage
# ---------------------------------------------------------------------- #
class TraceBuffer:
    """Bounded in-memory ring of completed traces + a slow-request log.

    ``capacity`` bounds memory; a finished trace evicts the oldest.  A trace
    whose total duration exceeds ``slow_threshold`` seconds is additionally
    remembered in the slow log (its own small ring), which survives eviction
    from the main ring — tail latencies outlive the traffic that caused them.
    """

    def __init__(self, *, capacity: int = 512, slow_threshold: float = 1.0,
                 slow_capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.slow_threshold = float(slow_threshold)
        self._traces: OrderedDict[str, dict] = OrderedDict()
        self._slow: deque[dict] = deque(maxlen=int(slow_capacity))
        self._lock = threading.Lock()
        self._finished = 0
        self._evicted = 0

    # ------------------------------------------------------------------ #
    def finish(self, trace: TraceContext, *, status: str = "ok",
               **attrs) -> dict | None:
        """Seal a trace into the ring; returns the stored record.

        Unsampled traces are dropped (their spans were never recorded).
        """
        if trace is None or not trace.sampled:
            return None
        duration = time.monotonic() - trace.created_at
        record = {"trace_id": trace.trace_id, "status": str(status),
                  "duration": duration, "attrs": dict(attrs),
                  "spans": trace.export_spans()}
        with self._lock:
            self._finished += 1
            self._traces[trace.trace_id] = record
            self._traces.move_to_end(trace.trace_id)
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self._evicted += 1
            if duration > self.slow_threshold:
                self._slow.append({"trace_id": trace.trace_id,
                                   "duration": duration,
                                   "status": record["status"],
                                   "spans": len(record["spans"])})
        return record

    def get(self, trace_id: str) -> dict | None:
        with self._lock:
            return self._traces.get(trace_id)

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def slow(self) -> list[dict]:
        """Slow-request log, oldest first."""
        with self._lock:
            return list(self._slow)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def stats(self) -> dict:
        with self._lock:
            return {"finished": self._finished, "stored": len(self._traces),
                    "evicted": self._evicted, "slow": len(self._slow),
                    "capacity": self.capacity,
                    "slow_threshold": self.slow_threshold}


class Tracer:
    """Sampling policy + buffer: the front end's handle on tracing.

    ``sample_rate=None`` reads ``REPRO_TRACE``; rate 0 makes :meth:`start`
    return ``None`` so the request path skips every trace touch — the
    zero-overhead contract the benchmarks gate.
    """

    def __init__(self, *, sample_rate: float | None = None,
                 capacity: int = 512, slow_threshold: float = 1.0) -> None:
        self.sample_rate = (default_sample_rate() if sample_rate is None
                            else min(1.0, max(0.0, float(sample_rate))))
        self.buffer = TraceBuffer(capacity=capacity,
                                  slow_threshold=slow_threshold)

    @property
    def enabled(self) -> bool:
        return self.sample_rate > 0.0

    def start(self, *, origin: str = "") -> TraceContext | None:
        """New per-request context, or ``None`` when tracing is off.

        With ``0 < rate < 1`` every request still gets a context (its id
        stamps event-log entries) but only the deterministic
        :func:`trace_is_sampled` fraction records spans.
        """
        if not self.enabled:
            return None
        trace_id = uuid.uuid4().hex
        return TraceContext(trace_id,
                            sampled=trace_is_sampled(trace_id,
                                                     self.sample_rate),
                            origin=origin)

    def finish(self, trace: TraceContext | None, *, status: str = "ok",
               **attrs) -> dict | None:
        if trace is None:
            return None
        return self.buffer.finish(trace, status=status, **attrs)

    def stats(self) -> dict:
        stats = self.buffer.stats()
        stats["sample_rate"] = self.sample_rate
        return stats

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tracer(sample_rate={self.sample_rate}, buffer={len(self.buffer)})"
