"""repro.obs — observability layer: metrics, request tracing, event log.

Three coordinated pillars, one per module:

* :mod:`repro.obs.metrics` — process-local Counter/Gauge/Histogram
  primitives with labels and a mergeable snapshot format, and the only
  counters the serving stack keeps: every ``stats()`` count is read from
  them.  Workers ship snapshots over the stats-probe path and the front end
  folds them into one cluster-wide view, rendered as Prometheus text on
  ``GET /metrics``.
* :mod:`repro.obs.trace` — per-request span trees with deterministic
  sampling, propagated across threads (contextvars), processes (wire
  dicts in the queue tuples) and coalesced batches (shared sweep spans);
  completed traces live in a ring served by ``GET /trace/<id>``.
* :mod:`repro.obs.events` — append-only JSONL of cluster lifecycle events
  (deaths, respawns, breaker trips, chaos faults, store quarantines),
  each stamped with the trace that observed it.

:class:`Observability` bundles the three so call sites thread one handle
instead of three, with environment-driven defaults for the tracer
(``REPRO_TRACE``) and the event log (``REPRO_EVENT_LOG``).
"""

from __future__ import annotations

from .events import EVENT_LOG_ENV_VAR, EventLog, default_event_log_path
from .metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                      merge_snapshots, relabel_snapshot, render_prometheus)
from .trace import (TRACE_ENV_VAR, Span, TraceBuffer, TraceContext, Tracer,
                    activated, current_trace, default_sample_rate, span,
                    trace_is_sampled)

__all__ = [
    "Observability",
    # metrics
    "MetricsRegistry", "Counter", "Gauge", "Histogram", "merge_snapshots",
    "relabel_snapshot", "render_prometheus",
    # trace
    "Tracer", "TraceContext", "TraceBuffer", "Span", "span", "activated",
    "current_trace", "trace_is_sampled", "default_sample_rate",
    "TRACE_ENV_VAR",
    # events
    "EventLog", "default_event_log_path", "EVENT_LOG_ENV_VAR",
]


class Observability:
    """One handle bundling a metrics registry, a tracer and an event log.

    Every component is optional at construction and defaults to a fresh
    instance (the tracer and event log configured from the environment),
    so ``Observability()`` is always safe
    and ``Observability(tracer=Tracer(sample_rate=1.0))`` overrides just
    the piece a test or benchmark cares about.
    """

    __slots__ = ("metrics", "tracer", "events")

    def __init__(self, *, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None,
                 events: EventLog | None = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.events = events if events is not None else EventLog()

    def stats(self) -> dict:
        return {"metrics": len(self.metrics), "trace": self.tracer.stats(),
                "events": self.events.stats()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Observability(metrics={len(self.metrics)}, "
                f"tracer={self.tracer!r}, events={self.events!r})")
