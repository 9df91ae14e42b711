"""Admission control: token-bucket tenant quotas and queue-depth shedding.

A serving tier that accepts every request collapses under overload: queues
grow without bound, every admitted request sees the full queueing delay, and
the system does strictly worse than one that had said "no" early.  The
controls here implement the standard alternative — **bounded queues with
explicit, retriable rejection**:

* :class:`TokenBucket` — per-tenant rate limiting.  Each tenant's bucket
  refills at ``rate`` tokens/second up to ``burst``; a request costs one
  token, and an empty bucket rejects with
  :class:`~repro.exceptions.QuotaExceededError` carrying the exact
  ``retry_after`` until a token exists.  Buckets are lazy: a tenant that
  never sends costs nothing.
* :class:`AdmissionController` — the per-request gate the front end calls
  *before* dispatching to a worker.  It checks the tenant bucket, then the
  routed worker's in-flight depth against ``queue_limit``: a full queue
  rejects with :class:`~repro.exceptions.QueueFullError` instead of letting
  latency grow unboundedly.  Every decision is counted, so "how much did we
  shed and why" is a stats read, not a log dive.

Rejections deliberately raise (rather than return ``False``): the front end
maps them to explicit retriable errors on the API surface — HTTP 429 with
``Retry-After`` — and the caller can distinguish *rejected* (safe to retry)
from *failed* (a solve error) by type alone.
"""

from __future__ import annotations

import threading
import time

from ..exceptions import (
    QueueFullError,
    QuotaExceededError,
    WorkerUnavailableError,
)
from ..obs.metrics import MetricsRegistry

__all__ = ["TokenBucket", "AdmissionController"]

#: ``admission_decisions_total`` outcome labels, in ``stats()`` key order.
_OUTCOMES = ("admitted", "shed_queue_full", "shed_quota",
             "shed_breaker_open", "shed_draining")


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``.

    ``clock`` is injectable (monotonic seconds) so tests can drive refills
    deterministically.  Thread-safe.

    Examples
    --------
    >>> bucket = TokenBucket(rate=2.0, burst=2.0)
    >>> bucket.try_acquire(), bucket.try_acquire(), bucket.try_acquire()
    (True, True, False)
    """

    def __init__(self, rate: float, burst: float | None = None, *,
                 clock=time.monotonic) -> None:
        if rate <= 0.0:
            raise ValueError("rate must be > 0 tokens/second")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else max(self.rate, 1.0)
        if self.burst <= 0.0:
            raise ValueError("burst must be > 0 tokens")
        self._clock = clock
        self._tokens = self.burst        # a fresh tenant starts with a full burst
        self._stamp = float(clock())
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Consume ``tokens`` if available; never blocks."""
        with self._lock:
            self._refill_locked(float(self._clock()))
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    def retry_after(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0.0 = right now)."""
        with self._lock:
            self._refill_locked(float(self._clock()))
            deficit = tokens - self._tokens
        return max(0.0, deficit / self.rate)

    @property
    def tokens(self) -> float:
        """Currently available tokens (after refilling to now)."""
        with self._lock:
            self._refill_locked(float(self._clock()))
            return self._tokens

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TokenBucket(rate={self.rate}, burst={self.burst})"


class AdmissionController:
    """Per-request admission gate: tenant quota first, then queue depth.

    Parameters
    ----------
    queue_limit:
        Maximum in-flight requests per worker; at or above this watermark
        new requests for that worker are shed with
        :class:`~repro.exceptions.QueueFullError`.  ``None`` disables
        depth shedding.
    tenant_rate / tenant_burst:
        Per-tenant token-bucket parameters (tokens/second and bucket
        capacity).  ``tenant_rate=None`` disables quotas entirely; requests
        without a ``tenant`` label always bypass the quota check (quotas
        bound *identified* tenants, anonymous traffic is bounded by the
        queue watermark).
    clock:
        Injectable monotonic clock shared by every tenant bucket.

    The controller is pure policy — it never touches queues itself; the
    front end reports each worker's current depth at admission time.  This
    keeps it trivially testable and reusable (the HTTP front end and the
    in-process :class:`~repro.serving.frontend.ClusterEngine` share one).
    """

    def __init__(self, *, queue_limit: int | None = 64,
                 tenant_rate: float | None = None,
                 tenant_burst: float | None = None,
                 clock=time.monotonic, metrics=None) -> None:
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be >= 1 (or None)")
        self.queue_limit = queue_limit
        self.tenant_rate = tenant_rate
        self.tenant_burst = tenant_burst
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        # the registry series is the only count of each decision; a
        # controller built without one keeps a private registry.
        metrics = MetricsRegistry() if metrics is None else metrics
        self._m_decisions = metrics.counter(
            "admission_decisions_total",
            "Admission gate decisions by outcome")

    # ------------------------------------------------------------------ #
    def _bucket(self, tenant: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = TokenBucket(self.tenant_rate, self.tenant_burst,
                                     clock=self._clock)
                self._buckets[tenant] = bucket
            return bucket

    def admit(self, worker_id: str, depth: int, *,
              tenant: str | None = None, draining: bool = False) -> None:
        """Admit one request routed to ``worker_id`` at in-flight ``depth``.

        Raises :class:`~repro.exceptions.QuotaExceededError` or
        :class:`~repro.exceptions.QueueFullError` on rejection; returns
        silently on admission.  The quota is charged *before* the depth
        check — a tenant hammering a full queue still burns budget, so one
        noisy tenant cannot convert shed load into free retries forever.

        ``draining=True`` rejects unconditionally with a retriable
        :class:`~repro.exceptions.WorkerUnavailableError`: a draining
        worker takes no new primaries, and its depth never enters the
        watermark accounting (the ring already routes around it — this
        guard is defence in depth against racing drain transitions).
        """
        if draining:
            self._m_decisions.inc(outcome="shed_draining")
            raise WorkerUnavailableError(
                f"worker {worker_id!r} is draining; retry for a replica")
        if self.tenant_rate is not None and tenant is not None:
            bucket = self._bucket(str(tenant))
            if not bucket.try_acquire():
                self._m_decisions.inc(outcome="shed_quota")
                raise QuotaExceededError(
                    f"tenant {tenant!r} exceeded its quota "
                    f"({self.tenant_rate}/s)",
                    retry_after=bucket.retry_after())
        if self.queue_limit is not None and depth >= self.queue_limit:
            self._m_decisions.inc(outcome="shed_queue_full")
            raise QueueFullError(
                f"worker {worker_id!r} queue is full "
                f"({depth}/{self.queue_limit} in flight); retry later",
                retry_after=None)
        self._m_decisions.inc(outcome="admitted")

    def note_breaker_shed(self) -> None:
        """Count a front-door rejection made by an open circuit breaker.

        The breaker lives with the routing layer (it is per-worker state),
        but its rejections are admission decisions like any other shed —
        recording them here keeps "how much did we refuse and why" one
        stats read even when the refusing control is the resilience layer.
        """
        self._m_decisions.inc(outcome="shed_breaker_open")

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Decision counters (admitted / shed by reason / live buckets)."""
        decisions = {outcome: int(self._m_decisions.value(outcome=outcome))
                     for outcome in _OUTCOMES}
        with self._lock:
            tenants = len(self._buckets)
        return {
            **decisions,
            "shed_total": sum(decisions.values()) - decisions["admitted"],
            "queue_limit": self.queue_limit,
            "tenant_rate": self.tenant_rate,
            "tenants": tenants,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        stats = self.stats()
        return (f"AdmissionController(admitted={stats['admitted']}, "
                f"shed={stats['shed_total']}, "
                f"queue_limit={self.queue_limit})")
