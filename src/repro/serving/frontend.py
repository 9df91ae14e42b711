"""Cluster front end: routed, admission-controlled access to a worker fleet.

:class:`ClusterEngine` is the in-process API (``submit`` / ``solve`` /
``stats``); :class:`ServingHTTPServer` wraps it in a minimal stdlib
HTTP/JSON surface.  One request travels::

        submit(A, b)
          │  fingerprint(A)                    (hash once per live object)
          │  HashRing.route(fingerprint) ──────→ worker_id   (sticky: cache heat)
          │  AdmissionController.admit() ──────→ may raise QuotaExceededError /
          │                                      QueueFullError (both retriable)
          │  SharedMatrixRegistry.publish(A)    (one shared segment per matrix)
          ▼
        worker request queue ──(multiprocessing)──→ worker batch loop
          ▲                                        coalesced fused sweep
          │                                        tiered store warm-start
        per-worker response queue ←─ result / typed error ←───┘
        (isolated so a worker crashing mid-write can never wedge the
         shared transport for its surviving siblings)

Guarantees the tests pin down:

* **determinism** — a fingerprint routes to the same worker for as long as
  that worker lives, so its compiled-solver cache, node-local store and
  shared-memory attachments stay hot; cluster answers equal single-process
  answers to 1e-12;
* **graceful degradation** — overload never queues unboundedly: requests
  are shed *at the front door* with explicit retriable errors, admitted
  requests keep bounded latency, and no exception type other than the
  documented rejections escapes the API;
* **churn containment** — a dead worker takes only its own arc with it:
  its in-flight requests are redispatched to the surviving ring (or fail
  retriably once the redispatch budget is spent), the ring drops its
  virtual nodes, and every other fingerprint keeps its warm home;
* **self-healing** — a :class:`~repro.serving.resilience.Supervisor`
  respawns dead/hung workers (warm-restoring their compiled-solver state
  from the tiered store) and re-adds them to the ring, so the fleet
  re-converges to full capacity after faults instead of shrinking; a
  per-worker :class:`~repro.serving.resilience.CircuitBreaker` sheds
  traffic for workers presumed down, and when *no* live worker can own a
  request the engine answers from its in-process classical fallback with
  ``degraded=True`` rather than erroring.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import queue as queue_module
import threading
import time
import weakref
from multiprocessing import connection as mp_connection
from concurrent.futures import Future, TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .. import exceptions as exceptions_module
from ..core.results import SingleSolveRecord
from ..engine.runner import _fork_context
from ..engine.sharedmem import SharedMatrixRegistry
from ..exceptions import (
    AdmissionError,
    CircuitOpenError,
    ReproError,
    SolveTimeoutError,
    WorkerUnavailableError,
)
from ..obs import EventLog, Observability, Tracer
from ..obs.metrics import merge_snapshots, relabel_snapshot, render_prometheus
from ..utils import is_linear_operator, matrix_fingerprint
from .admission import AdmissionController
from .resilience import (
    CircuitBreaker,
    HedgePolicy,
    RetryPolicy,
    Supervisor,
    select_replica,
)
from .router import DEFAULT_VNODES, HashRing
from .worker import (
    MSG_DRAIN,
    MSG_SHUTDOWN,
    MSG_SOLVE,
    MSG_STATS,
    MSG_WARM,
    WorkerConfig,
    worker_main,
)

__all__ = ["ClusterEngine", "ServingHTTPServer"]


@dataclasses.dataclass
class _Inflight:
    """One admitted solve request, from admission to its single settle.

    Carries everything needed to *re*-dispatch when the owning worker dies
    (wire payload, rhs copy, params) plus a strong reference to the
    caller's matrix for the classical degraded fallback.  Both live only as
    long as the request is in flight, so the pin is bounded by the queue
    limits.  Control traffic (stats probes, drain handshakes) never enters
    the request table; it lives in ``ClusterEngine._control``.

    ``state`` is one of:

    * ``"dispatched"`` — a primary copy is on ``worker_id``; the hedger may
      double it once it is overdue;
    * ``"hedged"`` — a hedge copy was sent.  It never goes back: a hedge
      copy that dies clears ``hedge_worker_id`` but is not re-sent;
    * ``"degraded"`` — an in-process classical solve owns the entry; the
      reaper's orphan scan, the hedger and the depth count skip it.

    Popping the entry in :meth:`ClusterEngine._settle` is the only exit.
    """

    future: Future
    #: worker holding the primary copy (``None`` for a request the
    #: submit-time fallback answers without any worker).
    worker_id: str | None
    started: float
    fingerprint: str
    payload: object
    rhs: np.ndarray
    params: dict
    matrix: object
    #: per-request :class:`~repro.obs.trace.TraceContext` (``None`` when
    #: tracing is off); spans recorded by the owning worker are adopted into
    #: it at settle time and the finished tree lands in the tracer's ring.
    trace: object | None
    #: ring-ordered replica set at dispatch time (primary first) — the
    #: pre-provisioned failover/hedge candidates for this request.
    replicas: tuple
    state: str = "dispatched"
    redispatches: int = 0
    #: replica currently holding the speculative hedge copy (``None`` = no
    #: hedge in flight); it counts toward that replica's depth until settle.
    hedge_worker_id: str | None = None


#: Frontend lifecycle transitions recorded by :meth:`ClusterEngine._record`:
#: kind -> (registry counter, its help text, whether the transition also
#: writes a span of that name into the request's trace).  The counter is the
#: transition's only count — ``stats()``, ``healthz()`` and ``/metrics`` all
#: read it.
_TRANSITIONS = {
    "failover": ("cluster_failovers_total",
                 "Requests instantly failed over to a live replica", True),
    "redispatch": ("cluster_redispatched_total",
                   "In-flight requests moved off a dead owner", True),
    "hedge_dispatch": ("cluster_hedged_total",
                       "Requests speculatively doubled onto a replica", True),
    "hedge_win": ("cluster_hedge_wins_total",
                  "Hedged requests answered first by the replica", False),
    "worker_death": ("cluster_worker_deaths_total",
                     "Worker processes found dead", False),
    "worker_respawn": ("cluster_restarts_total",
                       "Worker incarnations respawned", False),
    "degraded_fallback": (None, None, False),
}


class ClusterEngine:
    """Sharded multi-process solve service behind one ``submit``/``solve`` API.

    Parameters
    ----------
    num_workers:
        Worker processes to spawn (each owns a stable arc of fingerprints).
    vnodes:
        Virtual nodes per worker on the hash ring.
    queue_limit:
        Per-worker in-flight bound; beyond it requests shed with
        :class:`~repro.exceptions.QueueFullError`.  ``None`` disables.
    tenant_rate / tenant_burst:
        Per-tenant token-bucket quota (tokens/second, bucket size);
        ``tenant_rate=None`` disables quotas.
    local_store_dir / shared_store_dir:
        Disk levels of the tiered cache hierarchy.  Each worker gets its own
        subdirectory of ``local_store_dir`` (node-local level); the shared
        directory is common to the fleet and may be read-only.
    use_shared_memory:
        Publish each distinct matrix into one shared-memory segment and hand
        workers a fingerprint handle (default); off = pickle matrices per
        request.
    default_deadline:
        Deadline (seconds) applied to requests that do not pass their own.
    max_batch_size / cache_maxsize / threads_per_worker:
        Forwarded into each :class:`~repro.serving.worker.WorkerConfig`.
    replication_factor:
        How many distinct workers own each fingerprint (``R``).  The ring
        primary serves the request; the other ``R-1`` replicas are the
        pre-provisioned failover and hedge targets, warmed through the
        tiered store after the primary's first solve so a failover costs a
        cache hit, not a recompile.  ``1`` restores single-owner routing.
    hedging / hedge_after:
        Tail-latency hedging: a request whose primary has not answered
        within the hedge deadline (read once per 5 ms hedger tick) is
        doubled onto a replica — at most once, retried on a later tick
        while no replica is eligible — and the first response wins.
        ``hedge_after`` pins the deadline in seconds; ``None`` derives it
        live as ``3 x cluster p99`` once at least 64 latencies are recorded
        (so cold clusters never hedge).  ``hedging=False`` disables the
        hedger thread entirely.
    respawn:
        Run the :class:`~repro.serving.resilience.Supervisor`: dead workers
        are respawned (warm-restoring from the tiered store, under
        exponential backoff) and re-added to the ring, hung workers (stale
        heartbeat with queued work) are killed so the same path heals
        them.  ``False`` restores the shrink-only behaviour.
    supervisor_interval / hang_timeout:
        Supervisor tuning: pass period and heartbeat staleness bound
        (``None`` disables hang detection).
    probe_timeout:
        Seconds a stats probe may take before a silent worker is declared
        hung — used by the supervisor's hang detection and as the default
        for :meth:`_probe_worker`.
    max_requests_per_incarnation:
        Planned-recycling policy: once a worker's current incarnation has
        dispatched this many requests, the supervisor drains it (zero
        downtime — replicas own its arcs while in-flight work completes)
        and respawns it, one worker at a time.  ``None`` disables.
    retry_policy:
        Optional :class:`~repro.serving.resilience.RetryPolicy` applied to
        *synchronous* admission rejections inside :meth:`submit`
        (quota / queue-full / breaker-open / empty-ring), sleeping between
        attempts.  ``None`` (default) keeps rejections immediate — the PR 6
        contract — while in-flight redispatch below stays on.
    max_redispatch:
        How many times one in-flight request may be re-dispatched to a
        surviving worker after its owner died, before degrading or failing
        retriably.  0 disables redispatch.
    degraded_fallback:
        When no live worker can own a request (empty ring, breaker open,
        redispatch budget spent), solve classically in-process and answer
        with ``degraded=True`` instead of erroring.
    breaker_failure_threshold / breaker_reset_timeout:
        Per-worker circuit-breaker tuning (consecutive infrastructure
        failures to trip; seconds until half-open).
    chaos:
        Optional :class:`~repro.serving.resilience.ChaosSpec` forwarded to
        every worker — the deterministic fault-injection harness.
    trace_sample_rate:
        Deterministic trace sampling rate in ``[0, 1]`` (``None`` follows
        ``REPRO_TRACE``; 0 = tracing fully off, zero per-request overhead).
    event_log_path:
        JSONL file all processes append lifecycle/fault events to
        (``None`` follows ``REPRO_EVENT_LOG``; workers share the path).
        The engine's :attr:`observability` bundle (metrics registry,
        tracer, event log) is built from these two knobs.

    Use as a context manager (or call :meth:`close`) — worker processes and
    shared-memory segments are released deterministically.
    """

    def __init__(self, *, num_workers: int = 2, vnodes: int = DEFAULT_VNODES,
                 queue_limit: int | None = 64,
                 tenant_rate: float | None = None,
                 tenant_burst: float | None = None,
                 local_store_dir=None, shared_store_dir=None,
                 use_shared_memory: bool = True,
                 default_deadline: float | None = None,
                 max_batch_size: int = 64,
                 cache_maxsize: int = 32,
                 threads_per_worker: int | None = 1,
                 replication_factor: int = 2,
                 hedging: bool = True,
                 hedge_after: float | None = None,
                 respawn: bool = True,
                 supervisor_interval: float = 0.2,
                 hang_timeout: float | None = 10.0,
                 probe_timeout: float = 2.0,
                 max_requests_per_incarnation: int | None = None,
                 retry_policy: RetryPolicy | None = None,
                 max_redispatch: int = 2,
                 degraded_fallback: bool = True,
                 breaker_failure_threshold: int = 3,
                 breaker_reset_timeout: float = 1.0,
                 chaos=None,
                 trace_sample_rate: float | None = None,
                 event_log_path=None) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_redispatch < 0:
            raise ValueError("max_redispatch must be >= 0")
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.default_deadline = default_deadline
        self.retry_policy = retry_policy
        self.max_redispatch = int(max_redispatch)
        self.degraded_fallback = bool(degraded_fallback)
        self.replication_factor = int(replication_factor)
        self.probe_timeout = float(probe_timeout)
        self._hedge_policy = (HedgePolicy(hedge_after=hedge_after)
                              if hedging else None)
        self._obs = Observability(
            tracer=Tracer(sample_rate=trace_sample_rate),
            events=EventLog(event_log_path, source="frontend"))
        metrics = self._obs.metrics
        self._ring = HashRing(vnodes=vnodes)
        self._admission = AdmissionController(queue_limit=queue_limit,
                                              tenant_rate=tenant_rate,
                                              tenant_burst=tenant_burst,
                                              metrics=metrics)
        # cluster counters: these registry series are the only counts —
        # stats(), healthz() and /metrics all read them (and the latency
        # histogram IS the registry series, so no double recording).
        self._m_submitted = metrics.counter(
            "cluster_submitted_total",
            "Requests admitted, or answered by the degraded fallback")
        self._m_requests = metrics.counter(
            "cluster_requests_total", "Requests by final outcome")
        self._m_transitions = {
            kind: metrics.counter(name, help)
            for kind, (name, help, _) in _TRANSITIONS.items()
            if name is not None}
        self._g_workers_alive = metrics.gauge(
            "cluster_workers_alive", "Workers currently on the hash ring")
        self._g_inflight = metrics.gauge(
            "cluster_inflight", "Solve requests currently in flight")
        self._latency = metrics.histogram(
            "cluster_latency_seconds",
            "Submit-to-settle latency").labelled()
        self._registry = SharedMatrixRegistry() if use_shared_memory else None
        if self._registry is not None:
            # Start the resource tracker *before* forking the workers: a fork
            # child that first touches shared memory with no inherited tracker
            # fd spawns its own tracker, which then never observes the
            # parent's unlink and warns about "leaked" segments at shutdown.
            from multiprocessing import resource_tracker
            resource_tracker.ensure_running()
        context = _fork_context()
        if context is None:  # pragma: no cover - non-POSIX platforms
            import multiprocessing
            context = multiprocessing.get_context()
        self._context = context
        self._lock = threading.Lock()
        #: request_id -> :class:`_Inflight`: admitted solve requests only.
        self._inflight: dict[int, _Inflight] = {}
        #: request_id -> (worker_id, future) for control round-trips (stats
        #: probes, drain handshakes): off the request table, so they never
        #: occupy admission slots and are never redispatched.
        self._control: dict[int, tuple[str, Future]] = {}
        self._request_ids = itertools.count()
        #: id(matrix) -> (fingerprint, memo payload, weakref); see
        #: :meth:`_prepare_matrix` for why the reference must be weak.
        self._matrix_memo: dict[int, tuple[str, object, weakref.ref]] = {}
        self._retired: set[str] = set()
        #: workers mid-planned-recycle: the reaper and supervisor death
        #: paths must not treat their deliberate exit as a crash.
        self._planned: set[str] = set()
        #: requests dispatched to each worker's *current* incarnation —
        #: the planned-recycling trigger (reset on respawn).
        self._incarnation_dispatched: dict[str, int] = {}
        #: (worker, incarnation, fingerprint) triples already sent a
        #: replica warm-up, so each synthesis warms each replica once.
        self._warmed: set[tuple] = set()
        self._last_heard: dict[str, float] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._closing = threading.Event()
        self._workers: dict[str, dict] = {}
        self._started_at = time.monotonic()
        #: worker_id -> monotonic stamp of the last metrics snapshot folded
        #: into the cluster view (drives the /healthz staleness report).
        self._metrics_seen: dict[str, float] = {}
        now = time.monotonic()
        worker_event_path = (None if self._obs.events.path is None
                             else str(self._obs.events.path))
        for index in range(num_workers):
            worker_id = f"worker-{index}"
            config = WorkerConfig(
                worker_id=worker_id,
                local_store_dir=(None if local_store_dir is None
                                 else str(local_store_dir) + f"/{worker_id}"),
                shared_store_dir=(None if shared_store_dir is None
                                  else str(shared_store_dir)),
                cache_maxsize=cache_maxsize,
                max_batch_size=max_batch_size,
                threads=threads_per_worker,
                chaos=chaos,
                event_log_path=worker_event_path)
            requests = context.Queue()
            # one response queue PER worker, not one shared by the fleet: a
            # multiprocessing.Queue write holds a cross-process feeder lock,
            # so a worker killed mid-put on a shared queue would leave the
            # lock held forever and silence every *surviving* sibling — the
            # exact cascade ("healthy workers look hung, get probed, get
            # killed") that response isolation makes structurally impossible.
            responses = context.Queue()
            process = context.Process(
                target=worker_main, args=(config, requests, responses),
                name=f"repro-serving-{worker_id}", daemon=True)
            self._workers[worker_id] = {"config": config, "requests": requests,
                                        "responses": responses,
                                        "process": process,
                                        "final_stats": None,
                                        "started_at": now}
            self._incarnation_dispatched[worker_id] = 0
            self._last_heard[worker_id] = now
            self._breakers[worker_id] = CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                reset_timeout=breaker_reset_timeout,
                listener=self._breaker_listener(worker_id))
        for worker in self._workers.values():
            worker["process"].start()
        for worker_id in self._workers:
            self._ring.add_worker(worker_id)
        self._collector = threading.Thread(target=self._collect,
                                           name="repro-cluster-rx", daemon=True)
        self._collector.start()
        self._supervisor: Supervisor | None = None
        if respawn:
            self._supervisor = Supervisor(
                self, interval=supervisor_interval,
                hang_timeout=hang_timeout,
                probe_timeout=self.probe_timeout,
                max_requests_per_incarnation=max_requests_per_incarnation)
            self._supervisor.start()
        self._hedger: threading.Thread | None = None
        if self._hedge_policy is not None and self.replication_factor > 1:
            self._hedger = threading.Thread(target=self._hedge_loop,
                                            name="repro-cluster-hedger",
                                            daemon=True)
            self._hedger.start()

    # ------------------------------------------------------------------ #
    # observability plumbing
    # ------------------------------------------------------------------ #
    def _event(self, kind: str, **fields) -> None:
        """Stamp one lifecycle event on the cluster event log (never raises)."""
        self._obs.events.emit(kind, **fields)

    def _record(self, kind: str, entry_or_trace=None, **fields) -> None:
        """Record one lifecycle transition after it has happened.

        One call per transition, from the :data:`_TRANSITIONS` row of
        ``kind``: increment its counter, emit its event stamped with the
        request's ``trace_id``, and write its span into the trace.
        ``entry_or_trace`` is the request's :class:`_Inflight` entry, its
        trace, or ``None`` for fleet transitions.
        """
        _, _, writes_span = _TRANSITIONS[kind]
        counter = self._m_transitions.get(kind)
        if counter is not None:
            counter.inc()
        trace = (entry_or_trace.trace if isinstance(entry_or_trace, _Inflight)
                 else entry_or_trace)
        self._event(kind, trace_id=None if trace is None else trace.trace_id,
                    **fields)
        if writes_span and trace is not None:
            trace.add_span(kind, **fields)

    def _count(self, kind: str) -> int:
        """Lifetime count of one :data:`_TRANSITIONS` kind."""
        return int(self._m_transitions[kind].value())

    def _depth_of(self, worker_id: str) -> int:
        """Live request copies on ``worker_id`` (caller holds ``_lock``).

        Derived, never stored: the request entries not owned by the
        degraded fallback whose primary or hedge copy sits on that worker.
        Admission, drain quiescence, ``stats()`` and the supervisor's hang
        check all read it.
        """
        return sum(1 for entry in self._inflight.values()
                   if entry.state != "degraded"
                   and (entry.worker_id == worker_id
                        or entry.hedge_worker_id == worker_id))

    def _breaker_listener(self, worker_id: str):
        """Event-log adapter for one worker's circuit breaker."""
        def listener(transition: str, **fields) -> None:
            self._event(f"breaker_{transition}", worker=worker_id, **fields)
        return listener

    @property
    def observability(self) -> Observability:
        """The metrics/tracing/event-log bundle this engine reports into."""
        return self._obs

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def submit(self, matrix, rhs, *, epsilon_l: float = 1e-2,
               backend: str = "auto", kappa: float | None = None,
               tenant: str | None = None, deadline: float | None = None,
               **backend_options) -> Future:
        """Route + admit + dispatch one request; returns a ``Future``.

        Raises the admission rejections synchronously (the request was never
        dispatched — safe to retry; with a :attr:`retry_policy` configured,
        retriable rejections are retried here under backoff before
        surfacing); solve failures and deadline expiries surface through
        the future.  A worker death mid-flight redispatches the request to
        the surviving ring up to :attr:`max_redispatch` times, then (with
        :attr:`degraded_fallback`) answers classically with
        ``degraded=True`` — every future settles with a result or a typed
        retriable error, never silence.  The returned future carries the
        routed worker id as ``future.worker_id``.
        """
        if self._closing.is_set():
            raise RuntimeError("ClusterEngine is closed")
        fingerprint, payload = self._prepare_matrix(matrix)
        if deadline is None:
            deadline = self.default_deadline
        params = {
            "epsilon_l": float(epsilon_l),
            "backend": backend,
            "kappa": kappa,
            "backend_options": backend_options,
            "deadline_at": (None if deadline is None
                            else time.monotonic() + float(deadline)),
        }
        rhs_wire = np.array(rhs, dtype=float, copy=True)
        trace = self._obs.tracer.start(origin="fe")
        policy = self.retry_policy
        delay = None
        attempt = 0
        while True:
            try:
                return self._submit_once(matrix, fingerprint, payload,
                                         rhs_wire, params, tenant, trace)
            except AdmissionError as exc:
                if (policy is None or self._closing.is_set()
                        or not policy.should_retry(exc, attempt)):
                    if trace is not None:
                        self._obs.tracer.finish(trace, status="shed",
                                                error=type(exc).__name__)
                    raise
                delay = policy.next_delay(delay, retry_after=exc.retry_after)
                policy.sleep(delay)
                attempt += 1

    def _submit_once(self, matrix, fingerprint: str, payload, rhs_wire,
                     params: dict, tenant: str | None, trace=None) -> Future:
        """One routing/admission/dispatch attempt (see :meth:`submit`)."""
        degrade_reason = None
        worker_id = None
        try:
            if trace is not None:
                with trace.span("route", fingerprint=fingerprint[:16]):
                    replicas = self._ring.route_replicas(
                        fingerprint, self.replication_factor)
            else:
                replicas = self._ring.route_replicas(fingerprint,
                                                     self.replication_factor)
        except WorkerUnavailableError:
            # every worker is gone: either answer classically (and visibly
            # degraded) or let the retriable error reach the retry loop —
            # the supervisor may be mid-respawn.
            if not self.degraded_fallback:
                raise
            replicas, degrade_reason = (), "empty_ring"
        if degrade_reason is None:
            # prefer the ring primary, but fail over *instantly* to the next
            # live replica when the primary's breaker refuses — replicas
            # are warm, so the detour costs a cache hit, not a recompile.
            worker_id = select_replica(replicas, breakers=self._breakers,
                                       retired=self._retired)
            if worker_id is None:
                self._admission.note_breaker_shed()
                if not self.degraded_fallback:
                    breaker = self._breakers.get(replicas[0])
                    raise CircuitOpenError(
                        f"worker {replicas[0]!r} breaker is open after "
                        "consecutive failures (and no replica is eligible); "
                        "probe admitted when it half-opens",
                        retry_after=(None if breaker is None
                                     else breaker.retry_after()))
                replicas, degrade_reason = (), "breaker_open"
        future: Future = Future()
        future.worker_id = worker_id
        if trace is not None:
            future.trace_id = trace.trace_id
        request_id = next(self._request_ids)
        entry = _Inflight(future=future, worker_id=worker_id,
                          started=time.monotonic(), fingerprint=fingerprint,
                          payload=payload, rhs=rhs_wire, params=params,
                          matrix=matrix, trace=trace,
                          replicas=tuple(replicas))
        if degrade_reason is not None:
            with self._lock:
                self._inflight[request_id] = entry
            self._m_submitted.inc()
            self._degrade(request_id, entry, degrade_reason)
            return future
        with self._lock:
            # admit under the lock so the depth check and the new entry are
            # atomic (two racing submits must not both squeeze under the
            # watermark).
            self._admission.admit(worker_id, self._depth_of(worker_id),
                                  tenant=tenant,
                                  draining=self._ring.is_draining(worker_id))
            self._inflight[request_id] = entry
        self._m_submitted.inc()
        if trace is not None:
            trace.add_span("admit", start=entry.started,
                           duration=time.monotonic() - entry.started,
                           worker=worker_id)
        self._send(request_id, entry, worker_id, transitions=(
            () if worker_id == replicas[0] else
            (("failover", {"worker_from": replicas[0], "worker_to": worker_id,
                           "reason": "breaker_open"}),)))
        return future

    def _send(self, request_id: int, entry: _Inflight, target: str, *,
              hedge: bool = False, lost_owner: str | None = None,
              transitions: tuple = ()) -> None:
        """Put one copy of a solve request on ``target``'s queue.

        The only place a ``MSG_SOLVE`` message is built: the primary copy
        at submit, a ``hedge`` copy, and a redispatch off ``lost_owner``.
        Under the lock it checks the entry is still live (and unhedged, or
        still on ``lost_owner``), moves the copy to ``target`` and reads
        the queue.  ``transitions`` are recorded once the put succeeds.  A
        closed queue, or a target retired or respawned by the time the put
        returns (the reaper and the supervisor swap that state under the
        lock, so one side always sees the other), loses the copy: a hedge
        copy is dropped, a primary copy goes down the owner-lost ladder.
        """
        with self._lock:
            if self._inflight.get(request_id) is not entry:
                return
            if hedge:
                if entry.state != "dispatched":
                    return
                entry.state = "hedged"
                entry.hedge_worker_id = target
            else:
                if entry.state == "degraded" or (
                        lost_owner is not None
                        and entry.worker_id != lost_owner):
                    return
                if lost_owner is not None:
                    # quota was paid at admission, so a redispatch never
                    # re-runs admission (shedding an *admitted* request
                    # would be a silent drop).
                    entry.redispatches += 1
                entry.worker_id = target
                entry.future.worker_id = target
            self._incarnation_dispatched[target] = (
                self._incarnation_dispatched.get(target, 0) + 1)
            requests = self._workers[target]["requests"]
        params = entry.params
        if entry.trace is not None:
            # stamped per copy so the worker-side queue_wait span measures
            # exactly *this* cross-process queue (both ends read
            # CLOCK_MONOTONIC, which is system-wide on Linux).
            params = dict(params, trace=entry.trace.to_wire())
        try:
            requests.put((MSG_SOLVE, request_id, entry.payload, entry.rhs,
                          params))
        except (ValueError, OSError):
            sent = False
        except BaseException as exc:
            self._settle(request_id, None, exc)
            raise
        else:
            sent = True
            for kind, fields in transitions:
                self._record(kind, entry, **fields)
        with self._lock:
            lost = (not sent or target in self._retired
                    or self._workers[target]["requests"] is not requests)
            if lost and hedge and entry.hedge_worker_id == target:
                entry.hedge_worker_id = None  # the primary still answers
        if lost and not hedge:  # a redispatch chain is bounded by the budget
            self._handle_owner_lost(request_id, target)

    def solve(self, matrix, rhs, **kwargs) -> SingleSolveRecord:
        """Blocking convenience wrapper: ``submit(...).result()``."""
        return self.submit(matrix, rhs, **kwargs).result()

    def _prepare_matrix(self, matrix) -> tuple[str, object]:
        """(fingerprint, wire payload) for a matrix, memoised while it lives.

        With shared memory on, the payload is a
        :class:`~repro.engine.sharedmem.SharedMatrixHandle` — published once
        per distinct content, attached zero-copy by the owning worker.

        The memo keys on ``id(matrix)`` but, unlike the runner's publish memo
        (whose jobs list pins every array for the scope of one run), this
        memo is engine-lifetime while the caller's arrays are not — an HTTP
        request's matrix dies when the handler returns, and CPython reuses
        ids.  The entry therefore holds only a *weak* reference whose
        callback evicts it during the array's deallocation: a recycled id can
        never resurrect another matrix's fingerprint, and the memo stays
        bounded by the set of live client arrays.  Objects without weakref
        support are simply re-hashed per call — correctness never depends on
        the memo because :meth:`SharedMatrixRegistry.publish` dedups by
        content fingerprint.
        """
        key = id(matrix)
        memo = self._matrix_memo.get(key)
        if memo is not None:
            fingerprint, memo_payload, ref = memo
            if ref() is matrix:
                return fingerprint, (matrix if memo_payload is None
                                     else memo_payload)
        if self._registry is not None:
            handle = self._registry.publish(matrix)
            fingerprint, payload, memo_payload = (handle.fingerprint,
                                                  handle, handle)
        else:
            # payload is the matrix itself (pickled per request); memoise
            # only the fingerprint so the memo never pins the array alive.
            fingerprint, payload, memo_payload = (matrix_fingerprint(matrix),
                                                  matrix, None)
        try:
            ref = weakref.ref(
                matrix,
                lambda _ref, pop=self._matrix_memo.pop, key=key: pop(key, None))
        except TypeError:  # weakref-less input (e.g. a plain nested list)
            return fingerprint, payload
        self._matrix_memo[key] = (fingerprint, memo_payload, ref)
        return fingerprint, payload

    # ------------------------------------------------------------------ #
    # hedging
    # ------------------------------------------------------------------ #
    def hedge_deadline(self) -> float | None:
        """Current hedge deadline in seconds (``None`` = hedging inactive).

        Explicit ``hedge_after`` when configured, else derived live from
        the cluster latency histogram (``p99_multiplier x p99`` once the
        window holds enough samples) — the number ``/healthz`` reports so
        operators can watch the deadline track the workload.
        """
        if self._hedge_policy is None or self.replication_factor < 2:
            return None
        return self._hedge_policy.deadline(self._latency.summary())

    def _hedge_loop(self) -> None:
        """Hedger thread: double overdue requests onto their replicas."""
        while not self._closing.wait(0.005):
            try:
                self._scan_hedges()
            except Exception:  # noqa: BLE001 - hedging must outlive bugs
                pass

    def _scan_hedges(self) -> None:
        """One hedger tick: read the deadline once, hedge what is overdue
        (only ``dispatched`` entries with a replica to spare qualify)."""
        now = time.monotonic()
        with self._lock:
            candidates = [(request_id, entry) for request_id, entry
                          in self._inflight.items()
                          if entry.state == "dispatched"
                          and len(entry.replicas) > 1]
        if not candidates:
            return
        deadline = self.hedge_deadline()
        if deadline is None:
            return
        for request_id, entry in candidates:
            if now - entry.started >= deadline:
                self._maybe_hedge(request_id, entry)

    def _maybe_hedge(self, request_id: int, entry: _Inflight) -> None:
        """Speculatively dispatch one overdue request to a live replica.

        First response wins: :meth:`_settle` pops the entry exactly once,
        so the loser's late answer is dropped and both copies leave the
        depth count together.  The duplicate reuses the same ``request_id`` —
        idempotent settling is what makes hedging safe.  With no eligible
        replica the entry stays ``dispatched`` and a later tick retries:
        the blocking condition (a drain window, an open breaker) usually
        clears long before a gray primary's stall would.
        """
        primary = entry.worker_id
        draining = set(self._ring.draining)
        target = select_replica(entry.replicas, breakers=self._breakers,
                                retired=self._retired, draining=draining,
                                exclude=(primary,))
        if target is None:
            # the stored replica set can be *transiently* ineligible: a
            # fresh ring walk may surface the next live worker beyond the
            # original R-set.
            try:
                fresh = self._ring.route_replicas(entry.fingerprint,
                                                  max(len(self._ring), 1))
            except (WorkerUnavailableError, ValueError):
                return
            target = select_replica(fresh, breakers=self._breakers,
                                    retired=self._retired,
                                    draining=draining, exclude=(primary,))
            if target is None:
                return
        self._send(request_id, entry, target, hedge=True, transitions=(
            ("hedge_dispatch", {"worker_primary": primary,
                                "worker_hedge": target}),))

    def _warm_replicas(self, entry: _Inflight) -> None:
        """Send this request's synthesis to its other replicas (advisory).

        Runs at settle time, *after* the answering worker's cache has
        persisted the synthesis through the tiered store — so the replica's
        :data:`~repro.serving.worker.MSG_WARM` is a disk restore, not a
        recompile, and a later failover or hedge hits a warm cache.
        Memoised per (worker, incarnation, fingerprint) so steady traffic
        warms each replica exactly once per synthesis.
        """
        if len(entry.replicas) < 2 or self._closing.is_set():
            return
        params = entry.params
        warm_params = {
            "epsilon_l": params.get("epsilon_l", 1e-2),
            "backend": params.get("backend", "auto"),
            "kappa": params.get("kappa"),
            "backend_options": params.get("backend_options", {}),
        }
        for target in entry.replicas:
            if target == entry.worker_id:
                continue
            with self._lock:
                worker = self._workers.get(target)
                if worker is None or target in self._retired:
                    continue
                key = (target, worker["config"].incarnation,
                       entry.fingerprint)
                if key in self._warmed:
                    continue
                if len(self._warmed) > 4096:  # bound the memo, re-warm cheap
                    self._warmed.clear()
                self._warmed.add(key)
                requests = worker["requests"]
            try:
                requests.put((MSG_WARM, None, entry.payload, warm_params))
            except (ValueError, OSError):
                continue
            self._event("replica_warm", worker=target,
                        fingerprint=entry.fingerprint[:16])

    # ------------------------------------------------------------------ #
    # response path
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        """Collector thread: settle futures, notice dead workers.

        Multiplexes the per-worker response queues with
        :func:`multiprocessing.connection.wait` on their read pipes.  The
        queue snapshot is re-taken under the lock every iteration because a
        respawn swaps in a fresh queue; a pipe torn down between snapshot
        and wait just surfaces as an ``OSError`` for that round.
        """
        last_reap = time.monotonic()
        while True:
            with self._lock:
                readers = {worker["responses"]._reader: worker["responses"]
                           for worker in self._workers.values()}
            try:
                ready = mp_connection.wait(list(readers), timeout=0.05)
            except OSError:  # pragma: no cover - queue closed mid-wait
                ready = []
            got_any = False
            for reader in ready:
                responses = readers[reader]
                while True:
                    try:
                        response = responses.get_nowait()
                    except queue_module.Empty:
                        break
                    except Exception:  # noqa: BLE001 - a worker killed
                        break  # mid-write leaves a truncated pickle; the
                               # reaper handles the death, drop the bytes
                    got_any = True
                    try:
                        self._dispatch(response)
                    except Exception:  # noqa: BLE001 - one bad response must
                        pass           # not kill the loop and hang the rest
            if not got_any:
                if self._closing.is_set() and not self._inflight:
                    return
                self._reap_dead_workers()
                last_reap = time.monotonic()
            # reap on a clock too: a steady response stream from live
            # workers must not starve detection of a dead sibling.
            elif time.monotonic() - last_reap >= 0.25:
                self._reap_dead_workers()
                last_reap = time.monotonic()

    def _dispatch(self, response) -> None:
        """Route one worker response to its future / stats slot."""
        worker_id, kind, request_id, *payload = response
        # every response doubles as a heartbeat and as breaker evidence:
        # even a worker-side *solve* error proves the process and its loop
        # are healthy, so only infrastructure failures (deaths, probe
        # timeouts) are allowed to trip the breaker.
        with self._lock:
            self._last_heard[worker_id] = time.monotonic()
        breaker = self._breakers.get(worker_id)
        if breaker is not None:
            breaker.record_success()
        if kind == "result":
            self._settle(request_id, SingleSolveRecord(**payload[0]), None,
                         spans=payload[1] if len(payload) > 1 else None,
                         from_worker=worker_id)
        elif kind == "error":
            name, message = payload[0], payload[1]
            self._settle(request_id, None,
                         _rebuild_exception(name, message),
                         spans=payload[2] if len(payload) > 2 else None,
                         from_worker=worker_id)
        elif kind in ("stats", "drained"):
            self._resolve_control(request_id, payload[0])
        elif kind == "event":
            # a worker-side lifecycle/fault event (already on the shared
            # JSONL file from the worker's own log): fold it into the front
            # end's memory ring so one process holds the cluster timeline.
            self._obs.events.ingest(payload[0])
        elif kind == "shutdown":
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker["final_stats"] = payload[0]

    def _settle(self, request_id, result, error, *, spans=None,
                from_worker: str | None = None) -> None:
        """Resolve one solve request: the only way out of the request table.

        Idempotent (the first caller pops the entry; later ones no-op).
        Counts the outcome once: ``completed``, ``degraded``, ``error``, or
        ``cancelled`` when the caller's ``Future.cancel()`` won — then
        nothing is delivered.  ``spans`` are worker-recorded span dicts
        adopted into the request's trace before it is finished.

        ``from_worker`` names the worker whose response triggered this
        settle.  For a hedged request both copies share one ``request_id``;
        the first response pops the entry (first-wins), so the primary
        *and* the hedge copy leave the depth count together (the loser's
        late answer no-ops here), and a win by the hedge replica is
        recorded.
        """
        with self._lock:
            entry = self._inflight.pop(request_id, None)
        if entry is None:
            return
        if (entry.hedge_worker_id is not None
                and from_worker == entry.hedge_worker_id):
            self._record("hedge_win", entry, worker_primary=entry.worker_id,
                         worker_hedge=from_worker)
        future = entry.future
        if not future.set_running_or_notify_cancel():
            status = "cancelled"
        elif error is not None:
            status = "error"
        else:
            status = "degraded" if result.degraded else "ok"
        self._m_requests.inc(
            outcome="completed" if status == "ok" else status)
        if status in ("ok", "degraded"):
            self._latency.record(time.monotonic() - entry.started)
        trace = entry.trace
        if trace is not None:
            if spans:
                trace.adopt(spans)
            self._obs.tracer.finish(
                trace, status=status, worker=entry.worker_id,
                redispatches=entry.redispatches,
                error=None if error is None else type(error).__name__)
        if status == "cancelled":
            return
        if error is not None:
            future.set_exception(error)
            return
        if from_worker is not None:
            # the worker that actually answered (hedge wins move it)
            future.worker_id = from_worker
        future.set_result(result)
        if status == "ok":
            # warm-on-settle: the answering worker's cache has already
            # persisted this synthesis to the store, so replicas can
            # restore it from disk now and failover stays a cache hit.
            self._warm_replicas(entry)

    def _resolve_control(self, request_id, reply=None,
                         error: BaseException | None = None) -> None:
        """Answer (or fail) one control round-trip; idempotent."""
        with self._lock:
            slot = self._control.pop(request_id, None)
        if slot is None:
            return  # timed out, or already failed by the reaper
        if error is None:
            slot[1].set_result(reply)
        else:
            slot[1].set_exception(error)

    def _reap_dead_workers(self) -> None:
        """Retire crashed workers: shrink the ring, redispatch their in-flight.

        Consistent hashing makes this the *only* re-sharding step needed —
        the dead worker's arcs fall to its ring successors, every other
        fingerprint keeps its warm owner.  The supervisor (when enabled)
        respawns the worker afterwards and :meth:`HashRing.ensure_worker`
        gives it exactly its old arcs back.
        """
        if self._closing.is_set():
            return
        for worker_id, worker in self._workers.items():
            if worker_id in self._retired or worker["process"].is_alive():
                continue
            if worker_id in self._planned:
                continue  # a deliberate recycle exit, not a crash
            with self._lock:
                self._retired.add(worker_id)
            self._record("worker_death", worker=worker_id,
                         incarnation=worker["config"].incarnation,
                         pid=worker["process"].pid,
                         exitcode=worker["process"].exitcode,
                         uptime_s=time.monotonic() - worker["started_at"])
            self._ring.remove_worker(worker_id)
            breaker = self._breakers.get(worker_id)
            if breaker is not None:
                # one death = one failure: only a crash *loop* (threshold
                # consecutive deaths with no response in between) trips the
                # breaker, a single fault heals invisibly.
                breaker.record_failure()
        # Orphan scan over *all* retired owners, every pass — not only at
        # retirement time: a submit racing the retirement may register its
        # entry just after a one-shot scan, and the retired check in submit
        # plus this rescan together guarantee the future settles.  An entry
        # the degraded fallback owns is no orphan: its solve is running.
        with self._lock:
            orphaned = [(request_id, entry.worker_id) for request_id, entry
                        in self._inflight.items()
                        if entry.state != "degraded"
                        and entry.worker_id in self._retired]
            # a *hedge* copy on a dead worker is simply dropped: the
            # primary still answers.
            for entry in self._inflight.values():
                if entry.hedge_worker_id in self._retired:
                    entry.hedge_worker_id = None
            # a control round-trip to a dead worker can never be answered.
            dead_control = [request_id for request_id, (worker_id, _)
                            in self._control.items()
                            if worker_id in self._retired]
        for request_id in dead_control:
            self._resolve_control(request_id, error=WorkerUnavailableError(
                "worker died before answering a control message"))
        for request_id, owner in orphaned:
            self._handle_owner_lost(request_id, owner)

    def _handle_owner_lost(self, request_id: int, owner: str) -> None:
        """An in-flight request's owner died (or its queue was swapped).

        Escalation ladder: **promote a live hedge copy** (the duplicate is
        already solving on a replica — zero extra dispatch) → instant
        re-dispatch to the next live replica from the request's own
        pre-provisioned set → ring re-route, while the
        :attr:`max_redispatch` budget lasts → classical in-process solve
        with ``degraded=True`` → typed retriable failure.  Whatever branch
        runs, the future settles — no admitted request is silently dropped.
        Idempotent: the entry may already be settled, moved or degrading
        by a concurrent caller, in which case this is a no-op.
        """
        draining = set(self._ring.draining)
        with self._lock:
            entry = self._inflight.get(request_id)
            if (entry is None or entry.worker_id != owner
                    or entry.state == "degraded"):
                return  # settled, already redispatched, or degrading
            hedge = entry.hedge_worker_id
            promoted = (hedge is not None and hedge not in self._retired
                        and hedge in self._workers)
            if promoted:
                # the hedge copy is live on a replica: promote it to
                # primary.  No new dispatch needed — failover latency is
                # bounded by the hedge already running.
                entry.worker_id = hedge
                entry.hedge_worker_id = None
            redispatchable = (entry.redispatches < self.max_redispatch
                              and not self._closing.is_set())
        if promoted:
            entry.future.worker_id = hedge
            self._record("failover", entry, worker_from=owner,
                         worker_to=hedge, reason="hedge_promoted")
            return
        if redispatchable:
            # prefer the request's own replica set (warm by construction)
            # over a fresh ring walk; both exclude the dead owner.
            new_owner = select_replica(
                [r for r in entry.replicas if r != owner],
                breakers=self._breakers, retired=self._retired,
                draining=draining)
            via_replica = new_owner is not None
            if new_owner is None:
                try:
                    new_owner = self._ring.route(entry.fingerprint)
                except WorkerUnavailableError:
                    new_owner = None
            if new_owner is not None:
                moved = {"worker_from": owner, "worker_to": new_owner}
                transitions = (
                    (("failover", dict(moved, reason="replica_redispatch")),)
                    if via_replica else ()) + (
                    ("redispatch", dict(moved, hop=entry.redispatches + 1)),)
                self._send(request_id, entry, new_owner, lost_owner=owner,
                           transitions=transitions)
                return
        if self.degraded_fallback:
            # solve classically off-thread: this path runs on the collector
            # / supervisor threads, which must keep servicing the fleet.
            threading.Thread(target=self._degrade,
                             args=(request_id, entry, "owner_lost"),
                             name="repro-degraded-solve", daemon=True).start()
            return
        self._settle(request_id, None, WorkerUnavailableError(
            f"worker {owner!r} died with the request in flight; "
            "its fingerprints now route to the surviving workers"))

    def _degrade(self, request_id: int, entry: _Inflight,
                 reason: str) -> None:
        """Answer one request from the in-process classical fallback.

        Moves the entry to ``degraded`` — at most once, so a reaper pass
        that finds the dead owner again while the solve runs starts no
        second one — then solves, adds the ``degraded`` span and settles
        through :meth:`_settle`, which counts the outcome, records the
        latency and finishes the trace.
        """
        with self._lock:
            if (self._inflight.get(request_id) is not entry
                    or entry.state == "degraded"):
                return
            entry.state = "degraded"
        self._record("degraded_fallback", entry, worker=entry.worker_id,
                     reason=reason, hops=entry.redispatches)
        started = time.monotonic()
        try:
            record = _degraded_record(entry.matrix, entry.rhs)
        except Exception as exc:  # noqa: BLE001 - the future carries it
            self._settle(request_id, None, exc)
            return
        if entry.trace is not None:
            entry.trace.add_span("degraded", start=started,
                                 duration=time.monotonic() - started,
                                 reason=reason)
        self._settle(request_id, record, None)

    # ------------------------------------------------------------------ #
    # supervision mechanics (policy lives in resilience.Supervisor)
    # ------------------------------------------------------------------ #
    def _respawn_worker(self, worker_id: str) -> bool:
        """Start a fresh incarnation of a retired worker and re-ring it.

        The new process keeps the worker id and the node-local store
        directory, so it warm-restores compiled-solver state from disk
        (store hits, not recompiles) and its virtual nodes land on exactly
        the arcs it owned before — the ring re-converges to the pre-death
        placement.  The breaker is deliberately *not* reset: a respawn is
        hope, not evidence, and the first real response closes it.
        """
        if self._closing.is_set():
            return False
        worker = self._workers.get(worker_id)
        if worker is None or worker["process"].is_alive():
            return False
        config = dataclasses.replace(
            worker["config"], incarnation=worker["config"].incarnation + 1)
        requests = self._context.Queue()
        # fresh response queue as well: the dead incarnation may have left a
        # truncated frame (or a held feeder lock) in its old pipe, and the
        # new process must never inherit either.
        responses = self._context.Queue()
        process = self._context.Process(
            target=worker_main, args=(config, requests, responses),
            name=f"repro-serving-{worker_id}", daemon=True)
        process.start()
        now = time.monotonic()
        with self._lock:
            old_requests = worker["requests"]
            worker.update({"config": config, "requests": requests,
                           "responses": responses,
                           "process": process, "final_stats": None,
                           "started_at": now})
            self._retired.discard(worker_id)
            self._incarnation_dispatched[worker_id] = 0
            self._last_heard[worker_id] = now
        self._ring.ensure_worker(worker_id)
        self._record("worker_respawn", worker=worker_id,
                     incarnation=config.incarnation, pid=process.pid,
                     restarts=config.incarnation)
        try:
            old_requests.close()
        except (ValueError, OSError):  # pragma: no cover - already torn down
            pass
        return True

    def _probe_worker(self, worker_id: str,
                      timeout: float | None = None) -> bool:
        """Liveness probe: does a stats round-trip complete in ``timeout``?

        Used by the supervisor's hang detection.  The worker answers the
        probe from its batch loop once the turn it is in has finished
        sweeping, so a probe sent after ``hang_timeout`` of silence fails
        only if the worker stays silent ``probe_timeout`` longer — whether
        it is wedged or busy in one very long sweep.  ``timeout=None`` uses
        the engine-level :attr:`probe_timeout` — one knob governs every
        hang-detection probe.
        """
        if timeout is None:
            timeout = self.probe_timeout
        reply = self._round_trip(MSG_STATS, [worker_id], timeout).get(
            worker_id)
        return reply is not None and not isinstance(reply, Exception)

    def _round_trip(self, kind: str, worker_ids, timeout: float) -> dict:
        """Send one control message to each worker; collect the replies.

        Stats probes and drain handshakes stay off the request table, in
        :attr:`_control`: they never occupy admission slots, and the reaper
        fails those of a dead worker.  All workers are asked first, then
        awaited under one shared ``timeout``.  Returns ``{worker_id:
        reply}``, the reply being the answer or the exception standing for
        it; unknown and retired workers are left out.  Every slot is
        released on return, so polling a wedged worker leaks nothing.
        """
        pending: dict[str, tuple[int, Future]] = {}
        for worker_id in worker_ids:
            future: Future = Future()
            request_id = next(self._request_ids)
            with self._lock:
                worker = self._workers.get(worker_id)
                if worker is None or worker_id in self._retired:
                    continue
                requests = worker["requests"]
                self._control[request_id] = (worker_id, future)
            pending[worker_id] = (request_id, future)
            try:
                requests.put((kind, request_id))
            except (ValueError, OSError) as exc:
                self._resolve_control(request_id, error=exc)
        deadline = time.monotonic() + timeout
        replies = {}
        try:
            for worker_id, (_, future) in pending.items():
                try:
                    replies[worker_id] = future.result(
                        timeout=max(0.0, deadline - time.monotonic()))
                except Exception as exc:  # noqa: BLE001 - reported as reply
                    replies[worker_id] = exc
        finally:
            with self._lock:
                for request_id, _ in pending.values():
                    self._control.pop(request_id, None)
        return replies

    # ------------------------------------------------------------------ #
    # zero-downtime operations
    # ------------------------------------------------------------------ #
    def drain(self, worker_id: str, timeout: float = 30.0) -> bool:
        """Hand a worker's traffic to its replicas; wait for in-flight work.

        Marks the worker draining on the ring (admission stops routing it
        new primaries instantly — its arcs stay in place so
        :meth:`undrain` restores the exact pre-drain split), then runs the
        drain handshake: the worker finishes everything already enqueued
        and acks, and the front end waits until no request copy is left
        on it.  Returns ``True`` when the worker is fully quiesced
        within ``timeout``; the worker keeps running either way — drain is
        a routing state, not a shutdown.
        """
        if worker_id not in self._workers:
            raise ValueError(f"unknown worker {worker_id!r}")
        self._ring.set_draining(worker_id, True)
        self._event("worker_drain", worker=worker_id)
        with self._lock:
            already_dead = worker_id in self._retired
        if already_dead:
            # nothing can be in flight inside a dead process; the reaper
            # already moved (or will move) its orphans to replicas.
            self._event("worker_drain_complete", worker=worker_id,
                        dead=True)
            return True
        deadline = time.monotonic() + timeout
        reply = self._round_trip(MSG_DRAIN, [worker_id], timeout).get(
            worker_id)
        if reply is None or isinstance(reply, Exception):
            return False  # timed out, or died mid-drain
        # the worker's pending set is empty; now wait for the front end's
        # own accounting to settle (responses may still be in the pipe).
        while time.monotonic() < deadline:
            with self._lock:
                quiesced = self._depth_of(worker_id) == 0
            if quiesced:
                self._event("worker_drain_complete", worker=worker_id)
                return True
            time.sleep(0.005)
        return False

    def undrain(self, worker_id: str) -> bool:
        """Return a drained worker to normal routing; ``True`` = changed."""
        changed = self._ring.set_draining(worker_id, False)
        if changed:
            self._event("worker_undrain", worker=worker_id)
        return changed

    def recycle_worker(self, worker_id: str, timeout: float = 30.0) -> bool:
        """Planned zero-downtime restart of one worker: drain → respawn.

        Distinct from crash healing: the worker is drained first (replicas
        own its traffic, in-flight work completes), the deliberate exit is
        hidden from the reaper/supervisor death paths (no ``worker_death``
        event, no breaker failure, no crash-backoff), and the fresh
        incarnation warm-restores from the tiered store before the worker
        is undrained back into rotation.
        """
        if self._closing.is_set():
            return False
        with self._lock:
            if worker_id in self._planned or worker_id not in self._workers:
                return False
            self._planned.add(worker_id)
        try:
            drained = self.drain(worker_id, timeout=timeout)
            worker = self._workers[worker_id]
            process = worker["process"]
            if process.is_alive():
                try:
                    worker["requests"].put((MSG_SHUTDOWN,))
                except (ValueError, OSError):  # pragma: no cover
                    pass
                process.join(max(1.0, timeout / 2))
                if process.is_alive():  # pragma: no cover - wedged worker
                    process.terminate()
                    process.join(1.0)
            with self._lock:
                # retire so racing submits/redispatches see the swap; the
                # reaper skips planned workers, so no death is recorded.
                self._retired.add(worker_id)
            respawned = self._respawn_worker(worker_id)
            self.undrain(worker_id)
            self._event("worker_recycle", worker=worker_id,
                        drained=drained, respawned=respawned)
            return respawned
        finally:
            with self._lock:
                self._planned.discard(worker_id)

    def rolling_restart(self, timeout: float = 30.0) -> dict:
        """Recycle every worker one at a time under live traffic.

        Returns ``{worker_id: recycled_ok}``.  At any instant at most one
        worker is out of rotation, and its fingerprints are served by
        replicas that were warmed through the tiered store — the
        zero-downtime deployment primitive.
        """
        outcomes: dict[str, bool] = {}
        for worker_id in sorted(self._workers):
            if self._closing.is_set():
                break
            outcomes[worker_id] = self.recycle_worker(worker_id,
                                                      timeout=timeout)
        return outcomes

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def worker_stats(self, timeout: float = 5.0) -> dict:
        """Per-worker telemetry snapshots (cache, coalescing, queue depth).

        Stats probes are *control* traffic (see :meth:`_round_trip`): they
        never count against the admission ``queue_limit``, so monitoring
        cannot shed — or be shed by — solve load, and a probe that times
        out releases its slot instead of leaking it on every poll of a
        wedged worker.
        """
        snapshots = {}
        for worker_id, reply in self._round_trip(
                MSG_STATS, list(self._workers), timeout).items():
            if isinstance(reply, FutureTimeoutError):
                reply = {"error": "stats probe timed out"}
            elif isinstance(reply, Exception):
                reply = {"error": f"{type(reply).__name__}: {reply}"}
            elif reply.get("metrics") is not None:
                self._metrics_seen[worker_id] = time.monotonic()
            snapshots[worker_id] = reply
        with self._lock:
            retired = sorted(self._retired)
        for worker_id in retired:
            final = self._workers[worker_id]["final_stats"]
            snapshots[worker_id] = {"retired": True, "final": final}
        return snapshots

    def stats(self, *, include_workers: bool = True) -> dict:
        """Cluster snapshot: ring, admission, latency, depths, workers."""
        with self._lock:
            depths = {worker_id: self._depth_of(worker_id)
                      for worker_id in self._workers}
            inflight = len(self._inflight)
            restarts = {worker_id: worker["config"].incarnation
                        for worker_id, worker in self._workers.items()}
            incarnation_dispatched = dict(self._incarnation_dispatched)
        degraded = int(self._m_requests.value(outcome="degraded"))
        stats = {
            "workers_alive": len(self._ring),
            "worker_deaths": self._count("worker_death"),
            "submitted": int(self._m_submitted.value()),
            "completed": (int(self._m_requests.value(outcome="completed"))
                          + degraded),
            "inflight": inflight,
            "degraded": degraded,
            "redispatched": self._count("redispatch"),
            "hedged": self._count("hedge_dispatch"),
            "hedge_wins": self._count("hedge_win"),
            "failovers": self._count("failover"),
            "replication_factor": self.replication_factor,
            "hedge_deadline_s": self.hedge_deadline(),
            "incarnation_dispatched": incarnation_dispatched,
            "restarts": restarts,
            "queue_depths": depths,
            "ring": self._ring.stats(),
            "admission": self._admission.stats(),
            "breakers": {worker_id: breaker.stats()
                         for worker_id, breaker in self._breakers.items()},
            "supervisor": (None if self._supervisor is None
                           else self._supervisor.stats()),
            "latency": self._latency.summary(),
            "shared_memory": (None if self._registry is None
                              else self._registry.stats()),
        }
        stats["obs"] = {"trace": self._obs.tracer.stats(),
                        "events": self._obs.events.stats()}
        if include_workers:
            stats["per_worker"] = self.worker_stats()
            stats["metrics"] = self.metrics_snapshot(
                worker_snapshots=stats["per_worker"])
        return stats

    def metrics_snapshot(self, *, worker_snapshots: dict | None = None) -> dict:
        """One cluster-wide mergeable metrics snapshot.

        The front end's own registry is relabelled ``role="frontend"``;
        each worker's snapshot (shipped over the stats-probe path) is
        relabelled with its worker id, then everything folds with
        :func:`~repro.obs.metrics.merge_snapshots` — counters add,
        histograms merge sample windows.  Pass ``worker_snapshots`` to
        reuse an existing :meth:`worker_stats` result instead of probing
        the fleet again.
        """
        snapshots = [relabel_snapshot(self._obs.metrics.snapshot(),
                                      role="frontend")]
        if worker_snapshots is None:
            worker_snapshots = self.worker_stats()
        for worker_id, snap in worker_snapshots.items():
            if isinstance(snap, dict) and isinstance(snap.get("metrics"),
                                                     dict):
                snapshots.append(relabel_snapshot(snap["metrics"],
                                                  worker=worker_id))
        return merge_snapshots(snapshots)

    def prometheus_metrics(self) -> str:
        """Cluster metrics in Prometheus text format 0.0.4 (``GET /metrics``)."""
        self._g_workers_alive.set(float(len(self._ring)))
        with self._lock:
            self._g_inflight.set(float(len(self._inflight)))
        return render_prometheus(self.metrics_snapshot())

    def trace(self, trace_id: str) -> dict | None:
        """Finished span tree for one request id (``GET /trace/<id>``)."""
        return self._obs.tracer.buffer.get(trace_id)

    def healthz(self) -> dict:
        """Liveness payload with observability freshness (``GET /healthz``).

        Deliberately cheap: reads cached state only (no stats probes), so a
        wedged fleet cannot wedge its own health check.
        """
        alive = len(self._ring)
        now = time.monotonic()
        draining = set(self._ring.draining)
        with self._lock:
            restarts = sum(worker["config"].incarnation
                           for worker in self._workers.values())
            ages = {worker_id: (None if worker_id not in self._metrics_seen
                                else now - self._metrics_seen[worker_id])
                    for worker_id in self._workers}
            drain_states = {worker_id: worker_id in draining
                            for worker_id in self._workers}
        events = self._obs.events.stats()
        return {"ok": alive > 0 or self.degraded_fallback,
                "workers_alive": alive,
                "worker_deaths": self._count("worker_death"),
                "restarts": restarts,
                "uptime_s": now - self._started_at,
                # the rolling-restart watchers: R, who is draining, and the
                # live hedge deadline (None until the histogram warms or
                # when hedging is off).
                "replication_factor": self.replication_factor,
                "draining": drain_states,
                "hedge_deadline_s": self.hedge_deadline(),
                "hedged": self._count("hedge_dispatch"),
                "hedge_wins": self._count("hedge_win"),
                "failovers": self._count("failover"),
                "metrics_snapshot_age_s": ages,
                "event_log": {"lag_s": events["last_event_age_s"],
                              "events": events["events"],
                              "write_errors": events["write_errors"]},
                "tracing": self._obs.tracer.enabled}

    @property
    def workers_alive(self) -> list[str]:
        """Ids of the workers currently on the ring."""
        return self._ring.workers

    def route(self, matrix) -> str:
        """Which live worker owns this matrix's fingerprint (no dispatch)."""
        fingerprint, _ = self._prepare_matrix(matrix)
        return self._ring.route(fingerprint)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Drain, stop the workers and release every shared resource."""
        if self._closing.is_set():
            return
        self._closing.set()
        if self._supervisor is not None:
            # _closing wakes its loop; join before shutdown so no respawn
            # races the teardown below.
            self._supervisor.join(timeout=2.0)
        if self._hedger is not None and self._hedger.is_alive():
            self._hedger.join(timeout=1.0)
        for worker_id, worker in self._workers.items():
            if worker_id not in self._retired:
                try:
                    worker["requests"].put((MSG_SHUTDOWN,))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout
        for worker in self._workers.values():
            worker["process"].join(max(0.1, deadline - time.monotonic()))
            if worker["process"].is_alive():
                worker["process"].terminate()
                worker["process"].join(1.0)
        # fail whatever is still unresolved, then let the collector exit.
        with self._lock:
            orphaned = list(self._inflight)
            control = list(self._control)
        for request_id in orphaned:
            self._settle(request_id, None,
                         WorkerUnavailableError("cluster engine closed"))
        for request_id in control:
            self._resolve_control(request_id, error=WorkerUnavailableError(
                "cluster engine closed"))
        self._collector.join(timeout=2.0)
        if self._registry is not None:
            self._registry.close()
        self._event("engine_closed",
                    uptime_s=time.monotonic() - self._started_at)
        self._obs.events.close()

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterEngine(workers={len(self._ring)}, "
                f"submitted={int(self._m_submitted.value())}, "
                f"deaths={self._count('worker_death')})")


def _degraded_record(matrix, rhs) -> SingleSolveRecord:
    """Classical in-process solve shaped like a worker answer.

    The graceful-degradation fallback: exact (``block_encoding_calls == 0``,
    ``polynomial_degree == 0``) but bypassing the quantum pipeline and every
    cache, and flagged ``degraded=True`` so callers can tell.  Structured
    operators use their own ``solve`` (Thomas, fast diagonalisation, CG —
    the same classical reference the benchmarks validate against); dense
    input falls back to LAPACK.
    """
    started = time.monotonic()
    rhs = np.asarray(rhs, dtype=float)
    if is_linear_operator(matrix):
        x = np.asarray(matrix.solve(rhs), dtype=float)
        residual = float(np.linalg.norm(np.asarray(matrix.matvec(x)) - rhs))
    else:
        dense = np.asarray(matrix, dtype=float)
        x = np.linalg.solve(dense, rhs)
        residual = float(np.linalg.norm(dense @ x - rhs))
    scale = float(np.linalg.norm(x))
    direction = x / scale if scale > 0.0 else np.zeros_like(x)
    rhs_norm = float(np.linalg.norm(rhs))
    return SingleSolveRecord(
        x=x, direction=direction, scale=scale,
        scaled_residual=residual / rhs_norm if rhs_norm > 0.0 else residual,
        block_encoding_calls=0, polynomial_degree=0,
        success_probability=1.0, shots=0,
        wall_time=time.monotonic() - started, degraded=True)


def _rebuild_exception(name: str, message: str) -> BaseException:
    """Re-raise a worker-side failure as its own exception type when known.

    Only types defined in :mod:`repro.exceptions` cross the boundary as
    themselves (their constructors accept a plain message); anything else —
    numpy errors, bugs — becomes a ``RuntimeError`` tagged with the original
    type name, preserving per-request fault isolation without trusting
    arbitrary constructors.
    """
    exc_type = getattr(exceptions_module, name, None)
    if (isinstance(exc_type, type) and issubclass(exc_type, ReproError)):
        try:
            return exc_type(message)
        except TypeError:  # pragma: no cover - exotic constructor signature
            pass
    return RuntimeError(f"{name}: {message}")


# ---------------------------------------------------------------------- #
# HTTP front end
# ---------------------------------------------------------------------- #
def _jsonable(value):
    """Recursively convert numpy containers/scalars to JSON-safe values."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


class ServingHTTPServer:
    """Minimal stdlib HTTP/JSON surface over a :class:`ClusterEngine`.

    Endpoints::

        POST /solve    {"matrix": [[...]], "rhs": [...],
                        "epsilon_l"?, "backend"?, "kappa"?,
                        "tenant"?, "deadline"?}
                       → 200 {"x": [...], "scaled_residual": ...,
                              "degraded": false, ...}
                       → 429 admission rejection (Retry-After set when known)
                       → 503 no worker available / breaker open (retriable;
                              Retry-After carries the half-open countdown)
                       → 504 deadline expired
                       → 400 solve-level failure (singular matrix, ...)
        GET  /stats    → 200 cluster stats snapshot
        GET  /healthz  → 200 {"ok": true, "workers_alive": W,
                              "worker_deaths": D, "restarts": R,
                              "uptime_s": ..., "metrics_snapshot_age_s":
                              {...}, "event_log": {"lag_s": ...}}
        GET  /metrics  → 200 Prometheus text format 0.0.4 (cluster-merged)
        GET  /trace    → 200 tracer stats (ring occupancy, slow log)
        GET  /trace/ID → 200 finished span tree for one request / 404

    Rejections are **bodies, not exceptions**: every response carries
    ``{"error", "message", "retriable"}`` so clients can retry on
    ``retriable: true`` without parsing prose.  Bind to port 0 to let the
    OS pick (see :attr:`address`); the server runs on daemon threads and
    stops with :meth:`close`.
    """

    def __init__(self, engine: ClusterEngine, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.engine = engine
        handler = _make_handler(engine)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-serving-http", daemon=True)
        self._thread.start()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (port 0 resolves here)."""
        return self._server.server_address[:2]

    def close(self) -> None:
        """Stop accepting requests and join the accept loop."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2.0)

    def __enter__(self) -> "ServingHTTPServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _make_handler(engine: ClusterEngine):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def log_message(self, *args):  # silence per-request stderr noise
            pass

        def _reply(self, status: int, body: dict,
                   headers: dict | None = None) -> None:
            data = json.dumps(_jsonable(body)).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(data)

        def _reply_text(self, status: int, text: str,
                        content_type: str) -> None:
            data = text.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):
            if self.path == "/healthz":
                self._reply(200, engine.healthz())
            elif self.path == "/stats":
                self._reply(200, engine.stats())
            elif self.path == "/metrics":
                # the version suffix is the Prometheus text-exposition
                # contract; scrapers key parsing off it.
                self._reply_text(200, engine.prometheus_metrics(),
                                 "text/plain; version=0.0.4")
            elif self.path == "/trace" or self.path == "/trace/":
                self._reply(200, engine.observability.tracer.stats())
            elif self.path.startswith("/trace/"):
                trace_id = self.path[len("/trace/"):]
                record = engine.trace(trace_id)
                if record is None:
                    self._reply(404, {"error": "TraceNotFound",
                                      "message": trace_id,
                                      "retriable": False})
                else:
                    self._reply(200, record)
            else:
                self._reply(404, {"error": "NotFound", "message": self.path,
                                  "retriable": False})

        def do_POST(self):
            if self.path != "/solve":
                self._reply(404, {"error": "NotFound", "message": self.path,
                                  "retriable": False})
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
                request = json.loads(self.rfile.read(length) or b"{}")
                matrix = np.array(request["matrix"], dtype=float)
                rhs = np.array(request["rhs"], dtype=float)
            except (KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
                self._reply(400, {"error": type(exc).__name__,
                                  "message": str(exc), "retriable": False})
                return
            kwargs = {key: request[key] for key
                      in ("epsilon_l", "backend", "kappa", "tenant", "deadline")
                      if request.get(key) is not None}
            try:
                future = engine.submit(matrix, rhs, **kwargs)
                record = future.result()
            except WorkerUnavailableError as exc:
                # includes CircuitOpenError: the service (not the client) is
                # the problem, so 503 — retriable, the supervisor is healing.
                headers = ({} if exc.retry_after is None
                           else {"Retry-After": f"{exc.retry_after:.3f}"})
                self._reply(503, {"error": type(exc).__name__,
                                  "message": str(exc), "retriable": True},
                            headers)
                return
            except AdmissionError as exc:
                headers = ({} if exc.retry_after is None
                           else {"Retry-After": f"{exc.retry_after:.3f}"})
                self._reply(429, {"error": type(exc).__name__,
                                  "message": str(exc), "retriable": True},
                            headers)
                return
            except SolveTimeoutError as exc:
                self._reply(504, {"error": type(exc).__name__,
                                  "message": str(exc), "retriable": True})
                return
            except ReproError as exc:
                self._reply(400, {"error": type(exc).__name__,
                                  "message": str(exc), "retriable": False})
                return
            except Exception as exc:  # noqa: BLE001 - no 500-by-traceback
                self._reply(500, {"error": type(exc).__name__,
                                  "message": str(exc), "retriable": False})
                return
            self._reply(200, {
                "x": record.x,
                "scaled_residual": record.scaled_residual,
                "scale": record.scale,
                "block_encoding_calls": record.block_encoding_calls,
                "polynomial_degree": record.polynomial_degree,
                "wall_time": record.wall_time,
                "worker": future.worker_id,
                "degraded": record.degraded,
                "trace_id": getattr(future, "trace_id", None),
            })

    return Handler
