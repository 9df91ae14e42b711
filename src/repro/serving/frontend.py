"""Cluster front end: routed, admission-controlled access to a worker fleet.

:class:`ClusterEngine` is the in-process API (``submit`` / ``solve`` /
``stats``); :class:`~repro.serving.http.ServingHTTPServer` wraps it in a
minimal stdlib HTTP/JSON surface.  The workers themselves — processes,
queues, routing state, respawn, drain — are the
:class:`~repro.serving.fleet.Fleet`'s; this module keeps the request
lifecycle.  One request travels::

        submit(A, b)
          │  fingerprint(A)                    (hash once per live object)
          │  Fleet.route_replicas(fingerprint) ─→ worker_id  (sticky: cache heat)
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
  retriably once the redispatch budget is spent), routing skips its
  virtual nodes, and every other fingerprint keeps its warm home;
* **self-healing** — a :class:`~repro.serving.fleet.Supervisor`
  respawns dead/hung workers (warm-restoring their compiled-solver state
  from the tiered store), which rejoin the ring on their old arcs, so the
  fleet re-converges to full capacity after faults instead of shrinking; a
  per-worker :class:`~repro.serving.resilience.CircuitBreaker` sheds
  traffic for workers presumed down, and when *no* live worker can own a
  request the engine answers from its in-process classical fallback with
  ``degraded=True`` rather than erroring.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import queue as queue_module
import threading
import time
import weakref
from contextlib import nullcontext
from multiprocessing import connection as mp_connection
from concurrent.futures import Future

import numpy as np

from .. import exceptions as exceptions_module
from ..core.results import SingleSolveRecord
from ..engine.sharedmem import SharedMatrixRegistry
from ..exceptions import (
    AdmissionError,
    CircuitOpenError,
    ReproError,
    WorkerUnavailableError,
)
from ..obs import EventLog, Observability, Tracer
from ..obs.metrics import merge_snapshots, relabel_snapshot, render_prometheus
from ..utils import is_linear_operator, matrix_fingerprint
from .admission import AdmissionController
from .fleet import Fleet, Supervisor
from .resilience import HedgePolicy
from .router import DEFAULT_VNODES
from .worker import MSG_SOLVE, WorkerConfig

__all__ = ["ClusterEngine"]


@dataclasses.dataclass
class _Inflight:
    """One admitted solve request, from admission to its single settle.

    Carries everything needed to *re*-dispatch when the owning worker dies
    (wire payload, rhs copy, params) plus a strong reference to the
    caller's matrix for the classical degraded fallback.  Both live only as
    long as the request is in flight, so the pin is bounded by the queue
    limits.  Control traffic (stats probes, drain handshakes) never enters
    the request table; the fleet keeps them.

    ``state`` is one of:

    * ``"dispatched"`` — a primary copy is on ``worker_id``; the hedge
      scan may double it once it is overdue;
    * ``"hedged"`` — a hedge copy was sent.  It never goes back: a hedge
      copy that dies clears ``hedge_worker_id`` but is not re-sent;
    * ``"degraded"`` — an in-process classical solve owns the entry; the
      reaper's orphan scan, the hedge scan and the depth count skip it.

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
    "worker_hang_kill": ("cluster_hang_kills_total",
                         "Hung workers killed by the supervisor", False),
    "worker_recycle": ("cluster_recycles_total",
                       "Planned worker recycles (drain, then respawn)", False),
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
    max_batch_size / threads_per_worker:
        Forwarded into each :class:`~repro.serving.worker.WorkerConfig`.
    replication_factor:
        How many distinct workers own each fingerprint (``R``).  The ring
        primary serves the request; the other ``R-1`` replicas are the
        pre-provisioned failover and hedge targets, warmed through the
        tiered store after the primary's first solve so a failover costs a
        cache hit, not a recompile.  ``1`` restores single-owner routing.
    hedging / hedge_after:
        Tail-latency hedging: a request whose primary has not answered
        within the hedge deadline is doubled onto a replica — at most
        once, retried on a later scan while no replica is eligible — and
        the first response wins; the collector sleeps until one is due.
        ``hedge_after`` pins the deadline in seconds; ``None`` derives it
        live as ``3 x cluster p99`` once at least 64 latencies are recorded
        (so cold clusters never hedge).  ``hedging=False`` disables it.
    respawn:
        Run the :class:`~repro.serving.fleet.Supervisor`: dead workers
        are respawned (warm-restoring from the tiered store, under
        exponential backoff) and re-added to the ring, hung workers (stale
        heartbeat with queued work) are killed so the same path heals
        them.  ``False`` restores the shrink-only behaviour.
    supervisor_interval / hang_timeout:
        Supervisor tuning: pass period and heartbeat staleness bound
        (``None`` disables hang detection).
    probe_timeout:
        Seconds a stats probe may take before a silent worker is declared
        hung — the supervisor's hang detection.
    max_requests_per_incarnation:
        Planned-recycling policy: once a worker's current incarnation has
        dispatched this many requests, the supervisor drains it (zero
        downtime — replicas own its arcs while in-flight work completes)
        and respawns it, one worker at a time.  ``None`` disables.
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

    #: the worker fleet's type (a test substitutes an in-memory one).
    _fleet_class = Fleet

    def __init__(self, *, num_workers: int = 2, vnodes: int = DEFAULT_VNODES,
                 queue_limit: int | None = 64,
                 tenant_rate: float | None = None,
                 tenant_burst: float | None = None,
                 local_store_dir=None, shared_store_dir=None,
                 use_shared_memory: bool = True,
                 max_batch_size: int = 64,
                 threads_per_worker: int | None = 1,
                 replication_factor: int = 2,
                 hedging: bool = True,
                 hedge_after: float | None = None,
                 respawn: bool = True,
                 supervisor_interval: float = 0.2,
                 hang_timeout: float | None = 10.0,
                 probe_timeout: float = 2.0,
                 max_requests_per_incarnation: int | None = None,
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
        self.max_redispatch = int(max_redispatch)
        self.degraded_fallback = bool(degraded_fallback)
        self.replication_factor = int(replication_factor)
        self.probe_timeout = float(probe_timeout)
        self._hedge_policy = (HedgePolicy(hedge_after=hedge_after)
                              if hedging and replication_factor > 1 else None)
        self._obs = Observability(
            tracer=Tracer(sample_rate=trace_sample_rate),
            events=EventLog(event_log_path, source="frontend"))
        metrics = self._obs.metrics
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
        self._lock = threading.Lock()
        #: request_id -> :class:`_Inflight`: admitted solve requests only.
        self._inflight: dict[int, _Inflight] = {}
        self._request_ids = itertools.count()
        #: id(matrix) -> (fingerprint, memo payload, weakref); see
        #: :meth:`_prepare_matrix` for why the reference must be weak.
        self._matrix_memo: dict[int, tuple[str, object, weakref.ref]] = {}
        self._memo_lock = threading.Lock()
        self._closing = threading.Event()
        self._started_at = time.monotonic()
        worker_event_path = (None if self._obs.events.path is None
                             else str(self._obs.events.path))
        self._fleet = self._fleet_class(
            [WorkerConfig(
                worker_id=f"worker-{index}",
                local_store_dir=(None if local_store_dir is None
                                 else f"{local_store_dir}/worker-{index}"),
                shared_store_dir=(None if shared_store_dir is None
                                  else str(shared_store_dir)),
                max_batch_size=max_batch_size,
                threads=threads_per_worker,
                chaos=chaos,
                event_log_path=worker_event_path)
             for index in range(num_workers)],
            lock=self._lock, closing=self._closing, events=self._obs.events,
            record=self._record, depth_of=self._depth_of,
            orphans=self._orphans, owner_lost=self._handle_owner_lost,
            vnodes=vnodes,
            breaker_failure_threshold=breaker_failure_threshold,
            breaker_reset_timeout=breaker_reset_timeout)
        self._collector = threading.Thread(target=self._collect,
                                           name="repro-cluster-rx", daemon=True)
        self._collector.start()
        self._supervisor: Supervisor | None = None
        if respawn:
            self._supervisor = Supervisor(
                self._fleet, interval=supervisor_interval,
                hang_timeout=hang_timeout,
                probe_timeout=self.probe_timeout,
                max_requests_per_incarnation=max_requests_per_incarnation)
            self._supervisor.start()

    # ------------------------------------------------------------------ #
    # observability plumbing
    # ------------------------------------------------------------------ #
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
        self._obs.events.emit(
            kind, trace_id=None if trace is None else trace.trace_id, **fields)
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
        dispatched — safe to retry, e.g. under
        :meth:`~repro.serving.resilience.RetryPolicy.execute`, and each
        rejected call finishes its own trace as ``shed``); solve failures
        and deadline expiries surface through the future.  A worker death
        mid-flight redispatches the request to the surviving ring up to
        :attr:`max_redispatch` times, then (with
        :attr:`degraded_fallback`) answers classically with
        ``degraded=True`` — every future settles with a result or a typed
        retriable error, never silence.  The returned future carries the
        routed worker id as ``future.worker_id``.  A negative or
        non-finite ``deadline`` raises ``ValueError`` before admission.
        """
        if self._closing.is_set():
            raise RuntimeError("ClusterEngine is closed")
        if deadline is not None and not 0.0 <= float(deadline) < math.inf:
            raise ValueError("deadline must be a finite number of seconds "
                             f">= 0 (or None), got {deadline!r}")
        fingerprint, payload = self._prepare_matrix(matrix)
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
        try:
            return self._submit_once(matrix, fingerprint, payload, rhs_wire,
                                     params, tenant, trace)
        except AdmissionError as exc:
            if trace is not None:
                self._obs.tracer.finish(trace, status="shed",
                                        error=type(exc).__name__)
            raise

    def _submit_once(self, matrix, fingerprint: str, payload, rhs_wire,
                     params: dict, tenant: str | None, trace=None) -> Future:
        """One routing/admission/dispatch attempt (see :meth:`submit`)."""
        degrade_reason = None
        worker_id = None
        try:
            with (nullcontext() if trace is None else
                  trace.span("route", fingerprint=fingerprint[:16])):
                replicas = self._fleet.route_replicas(fingerprint,
                                                      self.replication_factor)
        except WorkerUnavailableError:
            # every worker is gone: either answer classically (and visibly
            # degraded) or raise the retriable error to the caller, whose
            # retry may land after the supervisor's respawn.
            if not self.degraded_fallback:
                raise
            replicas, degrade_reason = (), "empty_ring"
        if degrade_reason is None:
            # prefer the ring primary, but fail over *instantly* to the next
            # live replica when the primary's breaker refuses — replicas
            # are warm, so the detour costs a cache hit, not a recompile.
            worker_id, probe = self._fleet.select(replicas)
            if worker_id is None:
                self._admission.note_breaker_shed()
                if not self.degraded_fallback:
                    raise CircuitOpenError(
                        f"worker {replicas[0]!r} breaker is open after "
                        "consecutive failures (and no replica is eligible); "
                        "probe admitted when it half-opens",
                        retry_after=self._fleet.workers[
                            replicas[0]].breaker.retry_after())
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
        worker = self._fleet.workers[worker_id]
        with self._lock:
            # admit under the lock so the depth check and the new entry are
            # atomic (two racing submits must not both squeeze under the
            # watermark).
            try:
                self._admission.admit(worker_id, self._depth_of(worker_id),
                                      tenant=tenant, draining=worker.draining)
            except AdmissionError:
                if probe:  # the copy is never sent
                    worker.breaker.release()
                raise
            self._inflight[request_id] = entry
        self._m_submitted.inc()
        if trace is not None:
            trace.add_span("admit", start=entry.started,
                           duration=time.monotonic() - entry.started,
                           worker=worker_id)
        self._send(request_id, entry, worker_id, probe=probe, transitions=(
            () if worker_id == replicas[0] else
            (("failover", {"worker_from": replicas[0], "worker_to": worker_id,
                           "reason": "breaker_open"}),)))
        return future

    def _send(self, request_id: int, entry: _Inflight, target: str, *,
              hedge: bool = False, lost_owner: str | None = None,
              probe: bool = False, transitions: tuple = ()) -> None:
        """Put one copy of a solve request on ``target``'s queue.

        The only place a ``MSG_SOLVE`` message is built: the primary copy
        at submit, a ``hedge`` copy, and a redispatch off ``lost_owner``.
        Under the lock it checks the entry is still live (and unhedged, or
        still on ``lost_owner``), moves the copy to ``target`` and reads
        the queue.  ``transitions`` are recorded once the put succeeds.  A
        closed queue, or a target retired or respawned by the time the put
        returns (the fleet swaps that state under the lock, so one side
        always sees the other), loses the copy: a hedge
        copy is dropped, a primary copy goes down the owner-lost ladder.
        ``probe`` says the copy holds ``target``'s half-open breaker probe
        (:meth:`Fleet.select <repro.serving.fleet.Fleet.select>`), which a
        copy that is never put on the queue gives back.
        """
        worker = self._fleet.workers[target]
        with self._lock:
            current = self._inflight.get(request_id) is entry and (
                entry.state == "dispatched" if hedge else
                entry.state != "degraded" and (
                    lost_owner is None or entry.worker_id == lost_owner))
            if not current:
                if probe:
                    worker.breaker.release()
                return
            if hedge:
                entry.state = "hedged"
                entry.hedge_worker_id = target
            else:
                if lost_owner is not None:
                    # quota was paid at admission, so a redispatch never
                    # re-runs admission (shedding an *admitted* request
                    # would be a silent drop).
                    entry.redispatches += 1
                entry.worker_id = target
                entry.future.worker_id = target
            worker.dispatched += 1
            requests = worker.requests
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
            lost = (not sent or worker.retired
                    or worker.requests is not requests)
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

        The memo keys on ``id(matrix)``, but it is engine-lifetime while the
        caller's arrays are not — an HTTP request's matrix dies when the
        handler returns, and CPython reuses ids.  The entry therefore holds
        only a *weak* reference whose callback evicts it during the array's
        deallocation: a recycled id can never resurrect another matrix's
        fingerprint, and the memo stays bounded by the set of live client
        arrays.  Objects without weakref support are simply re-hashed per
        call — correctness never depends on the memo because
        :meth:`SharedMatrixRegistry.publish` dedups by content fingerprint.

        A hit reads the memo without a lock (the serving hot path).  A miss
        is single-flight: it re-checks under ``_memo_lock``, so concurrent
        first submits of one matrix hash and publish it once.
        """
        hit = self._memo_lookup(matrix)
        if hit is not None:
            return hit
        with self._memo_lock:
            hit = self._memo_lookup(matrix)
            if hit is not None:
                return hit
            if self._registry is not None:
                handle = self._registry.publish(matrix)
                fingerprint, payload, memo_payload = (handle.fingerprint,
                                                      handle, handle)
            else:
                # payload is the matrix itself (pickled per request);
                # memoise only the fingerprint so the memo never pins the
                # array alive.
                fingerprint, payload, memo_payload = (
                    matrix_fingerprint(matrix), matrix, None)
            key = id(matrix)
            try:
                ref = weakref.ref(
                    matrix, lambda _ref, pop=self._matrix_memo.pop,
                    key=key: pop(key, None))
            except TypeError:  # weakref-less input (e.g. a nested list)
                return fingerprint, payload
            self._matrix_memo[key] = (fingerprint, memo_payload, ref)
            return fingerprint, payload

    def _memo_lookup(self, matrix) -> tuple[str, object] | None:
        """The memoised ``(fingerprint, payload)`` of a live ``matrix``."""
        memo = self._matrix_memo.get(id(matrix))
        if memo is None:
            return None
        fingerprint, memo_payload, ref = memo
        if ref() is not matrix:
            return None
        return fingerprint, (matrix if memo_payload is None else memo_payload)

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
        if self._hedge_policy is None:
            return None
        return self._hedge_policy.deadline(self._latency.summary())

    def _scan_hedges(self, now: float) -> float:
        """Hedge what is overdue; return the seconds until the next scan.

        Only ``dispatched`` entries with a spare replica qualify, and none
        is due before the floor (``hedge_after``, else ``min_hedge``), so the
        percentile is read only once the oldest has passed it.  The next
        scan is at the earliest due time, at most one floor away.
        """
        floor = self._hedge_policy.hedge_after or self._hedge_policy.min_hedge
        with self._lock:
            candidates = [(request_id, entry) for request_id, entry
                          in self._inflight.items()
                          if entry.state == "dispatched"
                          and len(entry.replicas) > 1]
        oldest = min((entry.started for _, entry in candidates), default=now)
        if now - oldest < floor:
            return oldest + floor - now
        deadline = self.hedge_deadline()
        if deadline is None:
            return floor
        wait = floor  # also the retry delay of a hedge no replica could take
        for request_id, entry in candidates:
            due = entry.started + deadline - now
            if due > 0.0:
                wait = min(wait, due)
            else:
                self._maybe_hedge(request_id, entry)
        return wait

    def _maybe_hedge(self, request_id: int, entry: _Inflight) -> None:
        """Speculatively dispatch one overdue request to a live replica.

        First response wins: :meth:`_settle` pops the entry exactly once,
        so the loser's late answer is dropped and both copies leave the
        depth count together.  The duplicate reuses the same ``request_id`` —
        idempotent settling is what makes hedging safe.  With no eligible
        replica the entry stays ``dispatched`` and a later scan retries:
        the blocking condition (a drain window, an open breaker) usually
        clears long before a gray primary's stall would.
        """
        primary = entry.worker_id
        # the stored replica set can be *transiently* ineligible: the walk
        # goes on round the ring to the next worker that admits the copy.
        target, probe, _ = self._fleet.place(entry.fingerprint,
                                             entry.replicas,
                                             exclude=(primary,))
        if target is None:
            return
        self._send(request_id, entry, target, hedge=True, probe=probe,
                   transitions=(
            ("hedge_dispatch", {"worker_primary": primary,
                                "worker_hedge": target}),))

    # ------------------------------------------------------------------ #
    # response path
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        """Collector thread: settle, reap and hedge — every timed action.

        Waits on the response pipes and on the ``process.sentinel`` of each
        ``live`` worker (none once closing), so a death wakes it; both are
        re-read each turn, as a respawn swaps them.  A
        ready sentinel or a wake with no response runs
        :meth:`_reap_dead_workers`, its only caller; the wait ends at the
        :meth:`_scan_hedges` stamp.  Once closing, it returns as soon as
        every worker's farewell has been read, or its process had exited
        before the turn's wait (so the turn drained its pipe).
        """
        idle = 0.05
        hedge_at = 0.0 if self._hedge_policy is not None else float("inf")
        workers = self._fleet.workers.values()
        while True:
            closing = self._closing.is_set()
            with self._lock:
                readers = {worker.responses._reader: worker.responses
                           for worker in workers}
                # values pin each process, so its sentinel fd stays open
                sentinels = {} if closing else {
                    worker.process.sentinel: worker.process
                    for worker in workers if worker.state == "live"}
            exited = ({worker for worker in workers
                       if not worker.process.is_alive()} if closing else ())
            timeout = min(idle, max(0.0, hedge_at - time.monotonic()))
            try:
                ready = mp_connection.wait([*readers, *sentinels],
                                           timeout=timeout)
            except OSError:  # pragma: no cover - queue closed mid-wait
                ready = []
            got_any = died = False
            for handle in ready:
                responses = readers.get(handle)
                if responses is None:
                    died = True
                    continue
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
            if closing and all(worker.final_stats is not None
                               or worker in exited for worker in workers):
                return
            if died or not got_any:
                self._reap_dead_workers()
            now = time.monotonic()
            if now >= hedge_at:
                try:
                    hedge_at = now + self._scan_hedges(now)
                except Exception:  # noqa: BLE001 - a hedging bug must not
                    hedge_at = now + idle  # stop the settle loop

    def _dispatch(self, response) -> None:
        """Route one worker response: solves settle here, the rest is the
        fleet's (control replies, events, farewell stats)."""
        worker_id, kind, request_id, *payload = response
        self._fleet.heard(worker_id)
        if kind == "result":
            self._settle(request_id, SingleSolveRecord(**payload[0]), None,
                         spans=payload[1] if len(payload) > 1 else None,
                         from_worker=worker_id)
        elif kind == "error":
            self._settle(request_id, None,
                         _rebuild_exception(payload[0], payload[1]),
                         spans=payload[2] if len(payload) > 2 else None,
                         from_worker=worker_id)
        else:
            self._fleet.receive(worker_id, kind, request_id, payload)

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
        if status == "ok" and len(entry.replicas) > 1:
            # warm-on-settle: the answering worker's cache has already
            # persisted this synthesis to the store, so replicas can
            # restore it from disk now and failover stays a cache hit.
            self._fleet.warm(entry.replicas, entry.worker_id,
                             entry.fingerprint, entry.payload, entry.params)

    def _reap_dead_workers(self) -> None:
        """Retire crashed workers and move their in-flight requests.

        The fleet retires each newly dead worker and takes the orphan
        snapshot in one lock hold (:meth:`Fleet.reap
        <repro.serving.fleet.Fleet.reap>`); each orphan then goes down the
        owner-lost ladder.
        """
        self._fleet.reap()

    def _orphans(self) -> list:
        """``(request_id, owner)`` of every request on a retired owner.

        Called under ``_lock`` by the fleet's one retirement path — every
        reap pass and each recycle's stop — and for *all* retired owners:
        a submit racing the retirement may register after a one-shot scan.
        A degraded entry is no orphan (its solve is running), and a *hedge*
        copy on a retired worker is simply dropped — the primary still
        answers.
        """
        retired = self._fleet.is_retired
        orphaned = []
        for request_id, entry in self._inflight.items():
            if retired(entry.hedge_worker_id):
                entry.hedge_worker_id = None
            if entry.state != "degraded" and retired(entry.worker_id):
                orphaned.append((request_id, entry.worker_id))
        return orphaned

    def _handle_owner_lost(self, request_id: int, owner: str) -> None:
        """An in-flight request's owner died, was stopped by a recycle, or
        its queue was swapped.

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
        with self._lock:
            entry = self._inflight.get(request_id)
            if (entry is None or entry.worker_id != owner
                    or entry.state == "degraded"):
                return  # settled, already redispatched, or degrading
            hedge = entry.hedge_worker_id
            promoted = (hedge is not None
                        and not self._fleet.is_retired(hedge))
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
            # over the rest of the ring; both exclude the dead owner, and
            # a copy no worker admits takes the degraded or failure branch.
            new_owner, probe, via_replica = self._fleet.place(
                entry.fingerprint, entry.replicas, exclude=(owner,))
            if new_owner is not None:
                moved = {"worker_from": owner, "worker_to": new_owner}
                transitions = (
                    (("failover", dict(moved, reason="replica_redispatch")),)
                    if via_replica else ()) + (
                    ("redispatch", dict(moved, hop=entry.redispatches + 1)),)
                self._send(request_id, entry, new_owner, lost_owner=owner,
                           probe=probe, transitions=transitions)
                return
        if self.degraded_fallback:
            # solve classically off-thread: this path runs on the collector
            # (or a submitting client), which must not block on it.
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
    # zero-downtime operations (the fleet's mechanics)
    # ------------------------------------------------------------------ #
    def drain(self, worker_id: str, timeout: float = 30.0) -> bool:
        """Hand a worker's traffic to its replicas; wait for in-flight work.

        Marks the worker's record draining (routing and admission stop
        giving it new primaries instantly — its arcs stay in place so
        :meth:`undrain` restores the exact pre-drain split), then runs the
        drain handshake: the worker finishes everything already enqueued
        and acks, and the front end waits until no request copy is left
        on it.  Returns ``True`` when the worker is fully quiesced
        within ``timeout``; the worker keeps running either way — drain is
        a routing state, not a shutdown.
        """
        return self._fleet.drain(worker_id, timeout)

    def undrain(self, worker_id: str) -> bool:
        """Return a drained worker to normal routing; ``True`` = changed."""
        return self._fleet.undrain(worker_id)

    def recycle_worker(self, worker_id: str, timeout: float = 30.0) -> bool:
        """Planned zero-downtime restart of one worker: drain → respawn.

        Distinct from crash healing: the worker is drained first (replicas
        own its traffic, in-flight work completes), the deliberate exit is
        hidden from the reaper/supervisor death paths (no ``worker_death``
        event, no breaker failure, no crash-backoff), and the fresh
        incarnation warm-restores from the tiered store before the worker
        is undrained back into rotation.  A copy still on the worker when
        the drain gives up after ``timeout`` is handed to a replica as the
        worker stops.  Runs the fleet's phased recycle
        (:meth:`~repro.serving.fleet.Fleet.step_recycle`) to completion;
        ``False`` when the worker is neither ``live`` nor ``dead`` (a
        recycle or respawn is under way) or it was not respawned.
        """
        return self._fleet.recycle(worker_id, timeout)

    def rolling_restart(self, timeout: float = 30.0) -> dict:
        """Recycle every worker one at a time under live traffic.

        Returns ``{worker_id: recycled_ok}``.  At any instant at most one
        worker is out of rotation, and its fingerprints are served by
        replicas that were warmed through the tiered store — the
        zero-downtime deployment primitive.
        """
        outcomes: dict[str, bool] = {}
        for worker_id in sorted(self._fleet.workers):
            if self._closing.is_set():
                break
            outcomes[worker_id] = self.recycle_worker(worker_id, timeout)
        return outcomes

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def worker_stats(self, timeout: float = 5.0) -> dict:
        """Per-worker telemetry snapshots (cache, coalescing, queue depth).

        Stats probes are *control* traffic: they never count against the
        admission ``queue_limit``, so monitoring cannot shed — or be shed
        by — solve load, and a probe that times out releases its slot
        instead of leaking it on every poll of a wedged worker.
        """
        return self._fleet.worker_stats(timeout)

    def stats(self, *, include_workers: bool = True) -> dict:
        """Cluster snapshot: ring, admission, latency, depths, workers."""
        workers = self._fleet.workers
        with self._lock:
            depths = {worker_id: self._depth_of(worker_id)
                      for worker_id in workers}
            inflight = len(self._inflight)
            restarts = {worker_id: worker.config.incarnation
                        for worker_id, worker in workers.items()}
            incarnation_dispatched = {worker_id: worker.dispatched
                                      for worker_id, worker in workers.items()}
            members, draining = self._fleet.members(), self._fleet.draining()
        degraded = int(self._m_requests.value(outcome="degraded"))
        stats = {
            "workers_alive": len(members),
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
            "ring": self._fleet.ring.stats(members, draining),
            "admission": self._admission.stats(),
            "breakers": {worker_id: worker.breaker.stats()
                         for worker_id, worker in workers.items()},
            # the supervisor's counts are the registry's: ``respawns`` is
            # every respawn (crash healing and planned recycles alike).
            "supervisor": (None if self._supervisor is None else dict(
                respawns=self._count("worker_respawn"),
                hang_kills=self._count("worker_hang_kill"),
                recycles=self._count("worker_recycle"),
                **self._supervisor.stats())),
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
        self._g_workers_alive.set(float(len(self._fleet.members())))
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
        now = time.monotonic()
        workers = self._fleet.workers
        with self._lock:
            restarts = sum(worker.config.incarnation
                           for worker in workers.values())
            ages = {worker_id: (None if worker.metrics_seen is None
                                else now - worker.metrics_seen)
                    for worker_id, worker in workers.items()}
            alive = len(self._fleet.members())
            draining = self._fleet.draining()
        drain_states = {worker_id: worker_id in draining
                        for worker_id in workers}
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
        """Ids of the ring's current members (the non-retired workers)."""
        return sorted(self._fleet.members())

    def route(self, matrix) -> str:
        """Which live worker owns this matrix's fingerprint (no dispatch)."""
        fingerprint, _ = self._prepare_matrix(matrix)
        return self._fleet.route_replicas(fingerprint, 1)[0]

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
        self._fleet.close(timeout)
        # fail whatever is still unresolved, then let the collector exit.
        with self._lock:
            orphaned = list(self._inflight)
        for request_id in orphaned:
            self._settle(request_id, None,
                         WorkerUnavailableError("cluster engine closed"))
        self._collector.join(timeout=2.0)
        if self._registry is not None:
            self._registry.close()
        self._obs.events.emit("engine_closed",
                              uptime_s=time.monotonic() - self._started_at)
        self._obs.events.close()

    def __enter__(self) -> "ClusterEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ClusterEngine(workers={len(self._fleet.members())}, "
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
