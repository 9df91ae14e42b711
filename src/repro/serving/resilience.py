"""Self-healing primitives for the serving tier.

PR 6's tier *contains* faults (a dead worker takes only its own arc, its
in-flight requests fail retriably) but never *repairs* them: the fleet only
shrinks, and "retriable" is an adjective the client has to act on by hand.
This module closes that loop with the same shape of argument the paper makes
for iterative refinement — a cheap outer loop that repairs imperfect inner
results:

* :class:`RetryPolicy` — client-side exponential backoff with decorrelated
  jitter (the AWS formula: ``sleep = min(cap, uniform(base, prev * 3))``),
  honouring the server-provided ``retry_after`` on admission rejections and
  bounding retries on :class:`~repro.exceptions.WorkerUnavailableError`.
  The RNG and the sleep function are injectable, so tests replay schedules
  deterministically and never actually sleep.
* :class:`CircuitBreaker` — per-worker failure isolation.  ``closed`` routes
  normally; ``failure_threshold`` *consecutive* failures trip it ``open``
  (requests shed instantly with a ``retry_after`` instead of queueing onto a
  doomed worker); after ``reset_timeout`` it goes ``half-open`` and admits
  one probe — success closes it, failure re-opens it for another window.
* :class:`ChaosSpec` / :class:`ChaosPolicy` — a deterministic
  fault-injection harness.  A seeded RNG (derived per worker *and* per
  incarnation, so a respawned worker replays a fresh but reproducible
  stream) scripts worker crashes, hangs, slow responses, queue stalls and
  corrupted store payloads.  The policy is injected into
  :func:`~repro.serving.worker.worker_main` via
  :class:`~repro.serving.worker.WorkerConfig` or the ``REPRO_CHAOS``
  environment variable (JSON), and costs **zero** overhead when disabled —
  the worker holds ``None`` and never calls in.

The policy that uses them to heal the fleet — the
:class:`~repro.serving.fleet.Supervisor` — lives with the worker records
it reads, in :mod:`repro.serving.fleet`.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
import time
from dataclasses import asdict, dataclass

from ..exceptions import (
    AdmissionError,
    QueueFullError,
    QuotaExceededError,
    WorkerUnavailableError,
)
from ..obs.trace import current_trace

__all__ = ["RetryPolicy", "CircuitBreaker", "ChaosSpec", "ChaosPolicy",
           "HedgePolicy", "CHAOS_ENV_VAR"]

#: environment variable carrying a JSON :class:`ChaosSpec` for worker
#: processes (the config field takes precedence when both are set).
CHAOS_ENV_VAR = "REPRO_CHAOS"


# ---------------------------------------------------------------------- #
# retry policy
# ---------------------------------------------------------------------- #
class RetryPolicy:
    """Bounded retries with exponential backoff and decorrelated jitter.

    Parameters
    ----------
    max_attempts:
        Total tries (the first attempt counts; ``max_attempts=4`` means up
        to three retries).
    base_delay / max_delay:
        Backoff bounds in seconds.  The decorrelated-jitter recurrence is
        ``delay = min(max_delay, uniform(base_delay, previous * 3))`` with
        ``previous`` starting at ``base_delay``; it spreads a thundering
        herd across the window far better than full jitter on a pure
        exponential.
    retry_admission:
        Retry :class:`~repro.exceptions.QuotaExceededError` /
        :class:`~repro.exceptions.QueueFullError` (honouring their
        ``retry_after`` as a floor on the delay).  On by default; callers
        that want shedding to stay visible can turn it off.
    retry_unavailable:
        Retry :class:`~repro.exceptions.WorkerUnavailableError` (including
        :class:`~repro.exceptions.CircuitOpenError`) — the fault the
        supervisor repairs in the background, so a short backoff usually
        lands on a healed fleet.
    rng:
        Seed or ``random.Random`` for the jitter draws; pass a seed for a
        reproducible schedule.
    sleep:
        Injectable sleep callable (tests pass a recorder).

    Examples
    --------
    >>> policy = RetryPolicy(max_attempts=4, rng=0, sleep=lambda s: None)
    >>> policy.execute(flaky_callable)           # retried up to 3 times
    """

    def __init__(self, *, max_attempts: int = 4, base_delay: float = 0.05,
                 max_delay: float = 2.0, retry_admission: bool = True,
                 retry_unavailable: bool = True, rng=None,
                 sleep=time.sleep) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay <= 0.0 or max_delay < base_delay:
            raise ValueError("need 0 < base_delay <= max_delay")
        self.max_attempts = int(max_attempts)
        self.base_delay = float(base_delay)
        self.max_delay = float(max_delay)
        self.retry_admission = bool(retry_admission)
        self.retry_unavailable = bool(retry_unavailable)
        self._rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        self.sleep = sleep
        self._lock = threading.Lock()
        self._retries = 0

    # ------------------------------------------------------------------ #
    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether ``error`` on 0-based ``attempt`` warrants another try."""
        if attempt + 1 >= self.max_attempts:
            return False
        if not getattr(error, "retriable", False):
            return False
        if isinstance(error, (QuotaExceededError, QueueFullError)):
            return self.retry_admission
        if isinstance(error, WorkerUnavailableError):
            return self.retry_unavailable
        return isinstance(error, AdmissionError)

    def next_delay(self, previous: float | None = None, *,
                   retry_after: float | None = None) -> float:
        """Decorrelated-jitter successor of ``previous`` (``None`` = first).

        A server-provided ``retry_after`` floors the delay — backing off
        *less* than the server asked for just converts one rejection into
        two.
        """
        with self._lock:
            anchor = self.base_delay if previous is None else previous
            delay = self._rng.uniform(self.base_delay,
                                      max(self.base_delay, anchor * 3.0))
        delay = min(self.max_delay, delay)
        if retry_after is not None:
            delay = max(delay, float(retry_after))
        return delay

    def execute(self, fn, *args, **kwargs):
        """Call ``fn`` under this policy; re-raises the final failure."""
        delay = None
        for attempt in range(self.max_attempts):
            try:
                return fn(*args, **kwargs)
            except AdmissionError as exc:
                if not self.should_retry(exc, attempt):
                    raise
                delay = self.next_delay(delay, retry_after=exc.retry_after)
                with self._lock:
                    self._retries += 1
                self.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def stats(self) -> dict:
        with self._lock:
            return {"max_attempts": self.max_attempts,
                    "base_delay": self.base_delay,
                    "max_delay": self.max_delay,
                    "retries": self._retries}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base_delay={self.base_delay}, max_delay={self.max_delay})")


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #
class CircuitBreaker:
    """Per-worker trip switch: fail fast instead of queueing onto the doomed.

    States: ``closed`` (normal), ``open`` (shedding), ``half-open`` (one
    probe allowed).  ``failure_threshold`` *consecutive* failures trip the
    breaker; after ``reset_timeout`` seconds the next :meth:`allow` admits a
    single probe — a success closes the breaker, a failure re-opens it for
    another full window.  ``clock`` is injectable for deterministic tests.
    Thread-safe.
    """

    def __init__(self, *, failure_threshold: int = 3,
                 reset_timeout: float = 1.0, clock=time.monotonic,
                 listener=None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0.0:
            raise ValueError("reset_timeout must be > 0")
        self.failure_threshold = int(failure_threshold)
        self.reset_timeout = float(reset_timeout)
        self._clock = clock
        #: optional ``listener(transition, **fields)`` called (outside the
        #: lock) on open / half_open / reopen / close — the hook the serving
        #: tier uses to put breaker state changes on the event log.
        self.listener = listener
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False
        self._trips = 0

    def _notify(self, transition: str, **fields) -> None:
        if self.listener is None:
            return
        try:
            self.listener(transition, **fields)
        except Exception:  # noqa: BLE001 - telemetry must not break routing
            pass

    # ------------------------------------------------------------------ #
    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked(float(self._clock()))

    def _state_locked(self, now: float) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing or now - self._opened_at >= self.reset_timeout:
            return "half-open"
        return "open"

    def allow(self) -> str | None:
        """May a request pass right now?  ``None`` when refused, else what
        passed: ``"closed"``, or ``"probe"`` when this call claimed the
        half-open probe slot (:meth:`release` gives an unused one back)."""
        now = float(self._clock())
        with self._lock:
            state = self._state_locked(now)
            if state == "closed":
                return "closed"
            if state != "half-open" or self._probing:
                return None
            self._probing = True
        self._notify("half_open")
        return "probe"

    def release(self) -> None:
        """Give back the probe slot :meth:`allow` claimed for a request that
        was never sent: it is no evidence, so the next caller probes."""
        with self._lock:
            self._probing = False

    def retry_after(self) -> float:
        """Seconds until the breaker will next admit a probe (0 = now)."""
        now = float(self._clock())
        with self._lock:
            if self._opened_at is None:
                return 0.0
            return max(0.0, self.reset_timeout - (now - self._opened_at))

    def record_success(self) -> None:
        """A request attributed to this worker completed normally."""
        with self._lock:
            closed = self._opened_at is not None
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False
        if closed:
            self._notify("close")

    def record_failure(self) -> None:
        """An infrastructure failure attributed to this worker."""
        now = float(self._clock())
        transition = None
        with self._lock:
            self._consecutive_failures += 1
            if self._probing:
                # the half-open probe failed: re-open for a fresh window.
                self._probing = False
                self._opened_at = now
                transition = "reopen"
            elif (self._opened_at is None
                  and self._consecutive_failures >= self.failure_threshold):
                self._opened_at = now
                self._trips += 1
                transition = "open"
        if transition is not None:
            self._notify(transition,
                         consecutive_failures=self._consecutive_failures,
                         trips=self._trips)

    def stats(self) -> dict:
        with self._lock:
            return {"state": self._state_locked(float(self._clock())),
                    "consecutive_failures": self._consecutive_failures,
                    "trips": self._trips,
                    "failure_threshold": self.failure_threshold,
                    "reset_timeout": self.reset_timeout}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircuitBreaker(state={self.state!r}, trips={self._trips})"


# ---------------------------------------------------------------------- #
# hedging policy
# ---------------------------------------------------------------------- #
class HedgePolicy:
    """When to speculatively double a request onto a replica.

    The hedge deadline is either an explicit ``hedge_after`` (seconds) or
    derived from live latency telemetry: ``p99_multiplier`` times the
    cluster p99 from the metrics registry's solve-latency histogram,
    floored at ``min_hedge`` so a microsecond-fast cache-hit workload does
    not hedge every request.  Derivation needs at least ``min_samples``
    recorded latencies — before the histogram warms up, :meth:`deadline`
    returns ``None`` and the tier does not hedge (so cold clusters, tests
    and smoke runs see pure primary dispatch).
    """

    def __init__(self, *, hedge_after: float | None = None,
                 p99_multiplier: float = 3.0, min_hedge: float = 0.02,
                 min_samples: int = 64) -> None:
        if hedge_after is not None and hedge_after <= 0.0:
            raise ValueError("hedge_after must be > 0 when set")
        if p99_multiplier <= 0.0:
            raise ValueError("p99_multiplier must be > 0")
        self.hedge_after = None if hedge_after is None else float(hedge_after)
        self.p99_multiplier = float(p99_multiplier)
        self.min_hedge = float(min_hedge)
        self.min_samples = int(min_samples)

    def deadline(self, summary: dict | None = None) -> float | None:
        """Seconds after dispatch at which to hedge, or ``None`` = never.

        ``summary`` is a latency-histogram summary dict with ``count`` and
        ``p99`` keys (:meth:`repro.utils.timing.LatencyHistogram.summary`);
        only consulted when no explicit ``hedge_after`` was configured.
        """
        if self.hedge_after is not None:
            return self.hedge_after
        if not summary or summary.get("count", 0) < self.min_samples:
            return None
        p99 = summary.get("p99")
        if not p99 or p99 <= 0.0:
            return None
        return max(self.min_hedge, float(p99) * self.p99_multiplier)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"HedgePolicy(hedge_after={self.hedge_after}, "
                f"p99_multiplier={self.p99_multiplier})")


# ---------------------------------------------------------------------- #
# deterministic chaos injection
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChaosSpec:
    """Picklable, JSON-able script of faults for :class:`ChaosPolicy`.

    All probabilities are per-request (``stall_rate`` per queue drain,
    ``corrupt_store_rate`` per store write); ``crash_points`` is an explicit
    deterministic schedule of ``(incarnation, request_index)`` pairs — e.g.
    ``((0, 2),)`` crashes the worker's first incarnation while it handles
    its third request, and leaves every respawned incarnation healthy.
    ``workers`` restricts the spec to specific worker ids (empty = all).
    The default spec injects nothing and reports ``enabled == False``.

    A ``hang`` (``hang_seconds``) and a ``slow`` response
    (``slow_seconds``) are both a ``time.sleep`` of the worker's one
    synchronous loop: nothing else on that worker is answered meanwhile,
    stats probes included.  ``slow`` is thus a whole-worker gray failure —
    alive, but late on everything — and it only differs from ``hang`` in
    length: a sleep longer than the supervisor's
    ``hang_timeout + probe_timeout`` gets the worker killed as hung.
    """

    seed: int = 0
    crash_points: tuple = ()
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    hang_seconds: float = 3600.0
    slow_rate: float = 0.0
    slow_seconds: float = 0.05
    stall_rate: float = 0.0
    stall_seconds: float = 0.05
    corrupt_store_rate: float = 0.0
    workers: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "crash_points",
                           tuple((int(inc), int(idx))
                                 for inc, idx in self.crash_points))
        object.__setattr__(self, "workers",
                           tuple(str(w) for w in self.workers))

    @property
    def enabled(self) -> bool:
        return bool(self.crash_points) or any(
            rate > 0.0 for rate in (self.crash_rate, self.hang_rate,
                                    self.slow_rate, self.stall_rate,
                                    self.corrupt_store_rate))

    @classmethod
    def from_dict(cls, spec: dict) -> "ChaosSpec":
        known = {name for name in cls.__dataclass_fields__}
        unknown = set(spec) - known
        if unknown:
            raise ValueError(f"unknown ChaosSpec field(s): {sorted(unknown)}")
        return cls(**spec)

    def to_json(self) -> str:
        return json.dumps(asdict(self))  # tuples serialise as lists


def _derive_rng(spec_seed: int, worker_id: str, incarnation: int,
                stream: str) -> random.Random:
    """Independent deterministic stream per (seed, worker, incarnation, use)."""
    token = f"{spec_seed}:{worker_id}:{incarnation}:{stream}"
    digest = hashlib.sha256(token.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class ChaosPolicy:
    """Deterministic fault decisions for one worker incarnation.

    Each fault channel (request actions, drain stalls, store corruption)
    draws from its **own** seeded stream, so e.g. enabling store corruption
    never shifts the crash schedule.  Given the same spec, worker id,
    incarnation and request order, every decision replays identically —
    which is what makes recovery paths *testable*.

    The serving tier never pays for a disabled policy:
    :meth:`resolve` returns ``None`` (not an inert object) when the spec
    injects nothing, and callers hold ``if chaos is not None`` guards.
    """

    def __init__(self, spec: ChaosSpec | dict, *, worker_id: str = "",
                 incarnation: int = 0) -> None:
        self.spec = (spec if isinstance(spec, ChaosSpec)
                     else ChaosSpec.from_dict(spec))
        self.worker_id = str(worker_id)
        self.incarnation = int(incarnation)
        self._applies = (not self.spec.workers
                         or self.worker_id in self.spec.workers)
        self._crash_at = {idx for inc, idx in self.spec.crash_points
                          if inc == self.incarnation}
        #: optional :class:`repro.obs.events.EventLog`; every injected fault
        #: is recorded on it (and fsynced before a crash) so chaos drills
        #: leave an auditable timeline.  Set by the worker after resolve().
        self.events = None
        seed = self.spec.seed
        self._request_rng = _derive_rng(seed, self.worker_id,
                                        self.incarnation, "request")
        self._drain_rng = _derive_rng(seed, self.worker_id,
                                      self.incarnation, "drain")
        self._store_rng = _derive_rng(seed, self.worker_id,
                                      self.incarnation, "store")

    @property
    def enabled(self) -> bool:
        return self._applies and self.spec.enabled

    @classmethod
    def resolve(cls, spec, *, worker_id: str = "", incarnation: int = 0,
                environ=os.environ) -> "ChaosPolicy | None":
        """Active policy from a config spec or ``REPRO_CHAOS``; else ``None``."""
        if spec is None:
            raw = environ.get(CHAOS_ENV_VAR)
            if not raw:
                return None
            spec = ChaosSpec.from_dict(json.loads(raw))
        policy = cls(spec, worker_id=worker_id, incarnation=incarnation)
        return policy if policy.enabled else None

    # ------------------------------------------------------------------ #
    def on_request(self, index: int) -> str | None:
        """Fault for the ``index``-th request this incarnation handles.

        Returns ``"crash"`` / ``"hang"`` / ``"slow"`` / ``None``.  The
        random draw happens on **every** request (even when a crash point
        preempts it), keeping later decisions independent of the schedule.
        """
        spec = self.spec
        draw = self._request_rng.random()
        if index in self._crash_at or draw < spec.crash_rate:
            self._record_fault("crash", request_index=index,
                               scheduled=index in self._crash_at)
            return "crash"
        if draw < spec.crash_rate + spec.hang_rate:
            self._record_fault("hang", request_index=index,
                               seconds=spec.hang_seconds)
            return "hang"
        if draw < spec.crash_rate + spec.hang_rate + spec.slow_rate:
            self._record_fault("slow", request_index=index,
                               seconds=spec.slow_seconds)
            return "slow"
        return None

    def on_drain(self) -> float:
        """Queue-stall duration to inject before this drain pass (0 = none)."""
        if self.spec.stall_rate <= 0.0:
            return 0.0
        if self._drain_rng.random() < self.spec.stall_rate:
            self._record_fault("stall", seconds=self.spec.stall_seconds)
            return self.spec.stall_seconds
        return 0.0

    def corrupt_payload(self, data: bytes) -> bytes | None:
        """Corrupted replacement for a store payload, or ``None`` = intact.

        Corruption truncates the entry and appends garbage — exactly the
        torn-write / bad-sector shape the store's quarantine path handles.
        """
        if self.spec.corrupt_store_rate <= 0.0:
            return None
        if self._store_rng.random() >= self.spec.corrupt_store_rate:
            return None
        self._record_fault("corrupt_store", size=len(data))
        return data[: max(1, len(data) // 2)] + b"\x00chaos"

    def _record_fault(self, fault: str, **fields) -> None:
        """Stamp an injected fault on the event log (no-op without a sink).

        Crash faults are fsynced before returning: the very next thing the
        worker does is ``os._exit``, which would otherwise lose the line.
        """
        if self.events is None:
            return
        trace = current_trace()
        self.events.emit("chaos_fault", fault=fault,
                         trace_id=None if trace is None else trace.trace_id,
                         worker=self.worker_id,
                         incarnation=self.incarnation, **fields)
        if fault == "crash":
            self.events.sync()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ChaosPolicy(worker={self.worker_id!r}, "
                f"incarnation={self.incarnation}, enabled={self.enabled})")
