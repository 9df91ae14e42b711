"""The worker fleet behind :class:`~repro.serving.frontend.ClusterEngine`.

One :class:`_Worker` record per worker id holds everything the front end
knows about that worker, routing state included, and :class:`Fleet` owns
the records together with the fixed hash ring and the control
round-trips.  It provides the fleet mechanics — spawn, reap, respawn,
probe, drain, recycle and per-worker telemetry — while the request
lifecycle (submit, send, settle, failover, hedge, degrade) stays in the
front end, which reaches the workers only through this module.  The
:class:`Supervisor` is the policy on top: it reads the records directly to
heal deaths, kill hangs and recycle incarnations.

A worker is in one of five states:

* ``live`` — serving; the reaper marks it ``dead`` once its process exits;
* ``dead`` — retired by the reaper; the supervisor respawns it;
* ``recycling`` — a planned recycle owns it: draining, and after its
  respawn back in service until the recycle ends and it is ``live``;
* ``stopped`` — the recycle has stopped its process (or found it
  ``dead``) and is about to respawn it;
* ``spawning`` — a respawn has claimed the next incarnation of a ``dead``
  or ``stopped`` worker and is forking it; it comes back ``live`` or
  ``recycling`` respectively, or ``dead`` when the fork fails.  The claim
  is taken under the lock before the fork, so racing callers fork once.

Every state write is :meth:`Fleet._move`, under the shared lock, and takes
one edge of :data:`_WORKER_TRANSITIONS`; any other move raises.
``dead``, ``stopped`` and ``spawning`` are *retired*: no request copy is
sent there.  ``recycling`` and ``stopped`` are *planned*: the deliberate
exit is no crash to the reaper and no respawn for the supervisor.

Each record's ``draining`` flag is the rest of its routing state.  The
ring's *members* are the workers not retired — their arcs are the
placement — and the *eligible* workers, which new copies may go to, are
the members not draining.  A drain keeps the arcs (so the undrain
restores the exact split); a worker enters ``dead`` undrained.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import threading
import time
from concurrent.futures import Future, TimeoutError as FutureTimeoutError

from ..exceptions import WorkerUnavailableError
from .resilience import CircuitBreaker
from .router import DEFAULT_VNODES, HashRing
from .worker import (
    MSG_DRAIN,
    MSG_SHUTDOWN,
    MSG_STATS,
    MSG_WARM,
    WorkerConfig,
    worker_main,
)

__all__ = ["Fleet", "Supervisor"]

#: states in which no request copy may be sent to the worker.
_RETIRED = frozenset({"dead", "stopped", "spawning"})
#: the legal moves of a worker's state: ``from -> {to, ...}`` (see the
#: module docstring).
_WORKER_TRANSITIONS = {
    "spawning": {"live", "recycling", "dead"},
    "live": {"dead", "recycling"},
    "dead": {"spawning", "stopped"},
    "recycling": {"stopped", "live"},
    "stopped": {"spawning", "dead"},
}


@dataclasses.dataclass(eq=False)
class _Worker:
    """Everything the front end knows about one worker id.

    ``config`` (which carries the incarnation number) and the fields from
    ``requests`` on belong to one incarnation and are replaced by
    :meth:`Fleet._start`.  The breaker, the supervisor's backoff
    schedule and the metrics stamp outlive incarnations: a respawn is
    hope, not evidence, so only a real response closes the breaker.
    """

    config: WorkerConfig
    breaker: CircuitBreaker
    state: str = "spawning"
    #: excluded from new placement, arcs kept (see :meth:`Fleet.drain`).
    draining: bool = False
    #: the supervisor's crash-loop schedule: (consecutive short-lived
    #: incarnations, monotonic time before which no respawn is tried).
    backoff: tuple = (0, 0.0)
    #: monotonic stamp of the last metrics snapshot folded into the
    #: cluster view (drives the /healthz staleness report).
    metrics_seen: float | None = None
    requests: object = None
    responses: object = None
    process: object = None
    started_at: float = 0.0
    #: the last response of any kind: the worker's heartbeat.
    last_heard: float = 0.0
    #: requests dispatched to this incarnation (the recycling trigger).
    dispatched: int = 0
    #: fingerprints this incarnation was sent a replica warm-up for.
    warmed: set = dataclasses.field(default_factory=set)
    final_stats: dict | None = None

    @property
    def retired(self) -> bool:
        return self.state in _RETIRED

    @property
    def eligible(self) -> bool:
        """New placement may pick it: a ring member that is not draining."""
        return not (self.retired or self.draining)

    def allow(self) -> str | None:
        """May a request copy go here now?  Never to an ineligible worker;
        otherwise the breaker decides, claiming its half-open probe
        (:meth:`~repro.serving.resilience.CircuitBreaker.allow`)."""
        return self.breaker.allow() if self.eligible else None


class Fleet:
    """The worker records, the fixed hash ring and the control round-trips.

    ``lock`` is the front end's one lock: it guards every record's state
    and the request table together.  ``record`` records one lifecycle
    transition (``worker_death``, ``worker_respawn``, ``worker_hang_kill``,
    ``worker_recycle``), ``events`` takes the plain events, and
    ``depth_of(worker_id)`` (called under ``lock``) counts the request
    copies on a worker.  ``context`` is the :mod:`multiprocessing` context
    the workers' queues and processes come from.
    """

    def __init__(self, configs, *, lock, closing, events, record, depth_of,
                 vnodes: int = DEFAULT_VNODES,
                 breaker_failure_threshold: int = 3,
                 breaker_reset_timeout: float = 1.0, context=None) -> None:
        if context is None:
            # fork where the platform offers it, so workers inherit the
            # imports; the platform default otherwise.
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = multiprocessing.get_context()
        self._context = context
        self.lock = lock
        self.closing = closing
        self.events = events
        self.record = record
        self.depth_of = depth_of
        self.ring = HashRing([config.worker_id for config in configs],
                             vnodes=vnodes)
        #: request_id -> (worker_id, future) for control round-trips (stats
        #: probes, drain handshakes): never in the request table, so they
        #: occupy no admission slot and are never redispatched.
        self._control: dict[int, tuple[str, Future]] = {}
        self._control_ids = itertools.count()
        self.workers: dict[str, _Worker] = {
            config.worker_id: _Worker(config=config, breaker=CircuitBreaker(
                failure_threshold=breaker_failure_threshold,
                reset_timeout=breaker_reset_timeout,
                listener=self._breaker_listener(config.worker_id)))
            for config in configs}
        for worker in self.workers.values():
            self._start(worker, worker.config, "live")

    def _breaker_listener(self, worker_id: str):
        """Event-log adapter for one worker's circuit breaker."""
        def listener(transition: str, **fields) -> None:
            self.events.emit(f"breaker_{transition}", worker=worker_id,
                             **fields)
        return listener

    def is_retired(self, worker_id: str | None) -> bool:
        """Whether ``worker_id`` names a retired worker (caller holds lock)."""
        worker = self.workers.get(worker_id)
        return worker is not None and worker.retired

    def _move(self, worker: _Worker, to: str) -> None:
        """The one state write (caller holds ``lock``): an edge of
        :data:`_WORKER_TRANSITIONS`, or ``RuntimeError``."""
        if to not in _WORKER_TRANSITIONS[worker.state]:
            raise RuntimeError(f"illegal worker state move {worker.state!r}"
                               f" -> {to!r} ({worker.config.worker_id})")
        worker.state = to
        if to == "dead":
            worker.draining = False

    # ------------------------------------------------------------------ #
    # routing facts, all read off the records
    # ------------------------------------------------------------------ #
    def members(self) -> set[str]:
        """Workers whose arcs make up the placement: the non-retired."""
        return {worker_id for worker_id, worker in self.workers.items()
                if not worker.retired}

    def draining(self) -> set[str]:
        """Members excluded from new placement."""
        return {worker_id for worker_id in self.members()
                if self.workers[worker_id].draining}

    def route_replicas(self, fingerprint: str, n: int) -> list[str]:
        """The ring's first ``n`` eligible workers clockwise from
        ``fingerprint``.  Read without the lock: a copy's target is checked
        again under it when the copy is sent."""
        eligible = {worker_id for worker_id, worker in self.workers.items()
                    if worker.eligible}
        return self.ring.route_replicas(fingerprint, n, eligible)

    def select(self, candidates, *, exclude=()) -> tuple[str | None, bool]:
        """First candidate a copy may go to, and whether the copy holds
        that worker's half-open probe; ``(None, False)`` when none may.

        Each record's :meth:`_Worker.allow` is the gate, asked in ring
        order only until one passes, so a selection claims at most one
        probe.  A caller that never puts the copy on the queue gives the
        probe back (:meth:`~repro.serving.resilience.CircuitBreaker.release`).
        """
        for worker_id in candidates:
            if worker_id not in exclude:
                passed = self.workers[worker_id].allow()
                if passed:
                    return worker_id, passed == "probe"
        return None, False

    # ------------------------------------------------------------------ #
    # spawn, reap, respawn
    # ------------------------------------------------------------------ #
    def _start(self, worker: _Worker, config: WorkerConfig, state: str):
        """Fork ``config``'s incarnation of a ``spawning`` worker.

        The one spawn path, at construction and on every respawn: fresh
        queues and process, the per-incarnation fields reset, then under
        the lock the worker enters ``state`` and so (re-)joins the ring's
        members.  The worker keeps its id, so its arcs are exactly the
        ones it owned before.  A respawn (incarnation above 0) is recorded
        before the worker rejoins.  A fork that raises leaves the worker
        ``dead`` — a zero-length incarnation, so the supervisor retries it
        under its crash-loop backoff — and the error propagates.
        """
        requests = self._context.Queue()
        # one response queue PER worker, and a fresh one per incarnation: a
        # multiprocessing.Queue write holds a cross-process feeder lock, so
        # a worker killed mid-put on a shared queue would silence every
        # surviving sibling, and a dead incarnation may leave a truncated
        # frame in its pipe that the new process must never inherit.
        responses = self._context.Queue()
        process = self._context.Process(
            target=worker_main, args=(config, requests, responses),
            name=f"repro-serving-{config.worker_id}", daemon=True)
        try:
            process.start()
        except BaseException:
            with self.lock:
                worker.started_at = time.monotonic()
                self._move(worker, "dead")
            raise
        if config.incarnation:
            # counted before the worker rejoins the ring: whoever sees it
            # back in service also sees its respawn counted.
            self.record("worker_respawn", worker=config.worker_id,
                        incarnation=config.incarnation, pid=process.pid,
                        restarts=config.incarnation)
        now = time.monotonic()
        with self.lock:
            old_requests = worker.requests
            worker.config, worker.requests, worker.responses = (
                config, requests, responses)
            worker.process, worker.started_at, worker.last_heard = (
                process, now, now)
            worker.dispatched, worker.warmed = 0, set()
            worker.final_stats = None
            self._move(worker, state)
        if old_requests is not None:
            try:
                old_requests.close()
            except (ValueError, OSError):  # pragma: no cover - torn down
                pass

    def reap(self, orphans) -> list:
        """Retire the live workers whose process has exited.

        Consistent hashing makes this the *only* re-sharding step needed.
        One lock hold retires each newly dead worker (so it leaves the
        ring's members) and calls ``orphans()`` — the front end's snapshot
        of the requests left on retired workers, which it returns — so a
        death counts once and a respawn (which rejoins under the same
        lock) is never undone.  A death is one breaker failure: only a
        crash loop trips it.
        """
        if self.closing.is_set():
            return []
        with self.lock:
            dead = [worker for worker in self.workers.values()
                    if worker.state == "live"
                    and not worker.process.is_alive()]
            for worker in dead:
                self._move(worker, "dead")
            orphaned = orphans()
            # a control round-trip to a retired worker is never answered.
            dead_control = [request_id for request_id, (worker_id, _)
                            in self._control.items()
                            if self.workers[worker_id].retired]
        for worker in dead:
            self.record("worker_death", worker=worker.config.worker_id,
                        incarnation=worker.config.incarnation,
                        pid=worker.process.pid,
                        exitcode=worker.process.exitcode,
                        uptime_s=time.monotonic() - worker.started_at)
            worker.breaker.record_failure()
        for request_id in dead_control:
            self._resolve_control(request_id, error=WorkerUnavailableError(
                "worker died before answering a control message"))
        return orphaned

    def respawn(self, worker_id: str) -> bool:
        """Start the next incarnation of a ``dead`` or ``stopped`` worker.

        The new process keeps the node-local store directory, so it
        warm-restores compiled-solver state from disk (store hits, not
        recompiles).  The worker is claimed — moved to ``spawning`` under
        the lock — before the fork, so of two racing callers (the
        supervisor and a recycle, say) exactly one forks and returns
        ``True``.  A recycled worker comes back ``recycling``, so its
        recycle still owns it.
        """
        with self.lock:
            worker = self.workers.get(worker_id)
            if (self.closing.is_set() or worker is None
                    or worker.state not in ("dead", "stopped")
                    or worker.process.is_alive()):
                return False
            state = "live" if worker.state == "dead" else "recycling"
            self._move(worker, "spawning")
            config = dataclasses.replace(
                worker.config, incarnation=worker.config.incarnation + 1)
        self._start(worker, config, state)
        return True

    # ------------------------------------------------------------------ #
    # messages to and from the workers
    # ------------------------------------------------------------------ #
    def heard(self, worker_id: str) -> None:
        """A response arrived: it is the worker's heartbeat, and breaker
        evidence — even a solve *error* proves the process and its loop are
        healthy, so only deaths and probe timeouts trip the breaker."""
        worker = self.workers[worker_id]
        with self.lock:
            worker.last_heard = time.monotonic()
        worker.breaker.record_success()

    def receive(self, worker_id: str, kind: str, request_id, payload) -> None:
        """Handle one non-solve response (control reply, event, farewell)."""
        if kind in ("stats", "drained"):
            self._resolve_control(request_id, payload[0])
        elif kind == "event":
            # a worker-side event (already on the shared JSONL file): fold
            # it into the front end's ring so one process holds the
            # cluster timeline.
            self.events.ingest(payload[0])
        elif kind == "shutdown":
            self.workers[worker_id].final_stats = payload[0]

    def warm(self, replicas, owner: str, fingerprint: str, payload,
             params: dict) -> None:
        """Send one synthesis to the replicas other than ``owner`` (advisory).

        Runs at settle time, *after* the answering worker's cache has
        persisted the synthesis through the tiered store — so the replica's
        :data:`~repro.serving.worker.MSG_WARM` is a disk restore, not a
        recompile, and a later failover or hedge hits a warm cache.  Each
        incarnation is warmed once per fingerprint.
        """
        if self.closing.is_set():
            return
        for target in replicas:
            if target == owner:
                continue
            with self.lock:
                worker = self.workers.get(target)
                if (worker is None or worker.retired
                        or fingerprint in worker.warmed):
                    continue
                if len(worker.warmed) > 4096:  # bound the memo, re-warm cheap
                    worker.warmed.clear()
                worker.warmed.add(fingerprint)
                requests = worker.requests
            try:
                requests.put((MSG_WARM, None, payload, params))
            except (ValueError, OSError):
                continue
            self.events.emit("replica_warm", worker=target,
                             fingerprint=fingerprint[:16])

    def _resolve_control(self, request_id, reply=None,
                         error: BaseException | None = None) -> None:
        """Answer (or fail) one control round-trip; idempotent."""
        with self.lock:
            slot = self._control.pop(request_id, None)
        if slot is None:
            return  # timed out, or already failed by the reaper
        if error is None:
            slot[1].set_result(reply)
        else:
            slot[1].set_exception(error)

    def round_trip(self, kind: str, worker_ids, timeout: float) -> dict:
        """Send one control message to each worker; collect the replies.

        All workers are asked first, then awaited under one shared
        ``timeout``.  Returns ``{worker_id: reply}``, the reply being the
        answer or the exception standing for it; unknown and retired
        workers are left out.  Every slot is released on return, so
        polling a wedged worker leaks nothing.
        """
        pending: dict[str, tuple[int, Future]] = {}
        for worker_id in worker_ids:
            future: Future = Future()
            request_id = next(self._control_ids)
            with self.lock:
                worker = self.workers.get(worker_id)
                if worker is None or worker.retired:
                    continue
                requests = worker.requests
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
            with self.lock:
                for request_id, _ in pending.values():
                    self._control.pop(request_id, None)
        return replies

    def probe(self, worker_id: str, timeout: float) -> bool:
        """Liveness probe: does a stats round-trip complete in ``timeout``?

        The worker answers from its batch loop once the turn it is in has
        finished sweeping, so a probe sent after ``hang_timeout`` of
        silence fails only if the worker stays silent ``timeout`` longer —
        whether it is wedged or busy in one very long sweep.
        """
        reply = self.round_trip(MSG_STATS, [worker_id], timeout).get(worker_id)
        return reply is not None and not isinstance(reply, Exception)

    def worker_stats(self, timeout: float = 5.0) -> dict:
        """Per-worker telemetry snapshots; a retired worker reports its
        farewell stats.  Probes are control traffic, never shed."""
        snapshots = {}
        for worker_id, reply in self.round_trip(
                MSG_STATS, list(self.workers), timeout).items():
            if isinstance(reply, FutureTimeoutError):
                reply = {"error": "stats probe timed out"}
            elif isinstance(reply, Exception):
                reply = {"error": f"{type(reply).__name__}: {reply}"}
            elif reply.get("metrics") is not None:
                self.workers[worker_id].metrics_seen = time.monotonic()
            snapshots[worker_id] = reply
        with self.lock:
            retired = sorted(worker_id for worker_id, worker
                             in self.workers.items() if worker.retired)
        for worker_id in retired:
            snapshots[worker_id] = {
                "retired": True, "final": self.workers[worker_id].final_stats}
        return snapshots

    # ------------------------------------------------------------------ #
    # zero-downtime operations
    # ------------------------------------------------------------------ #
    def drain(self, worker_id: str, timeout: float = 30.0) -> bool:
        """Mark a worker draining, then wait until nothing is left on it.

        See :meth:`~repro.serving.frontend.ClusterEngine.drain`.  A retired
        worker is not marked (it is no member, and enters ``dead``
        undrained anyway).
        """
        worker = self.workers.get(worker_id)
        if worker is None:
            raise ValueError(f"unknown worker {worker_id!r}")
        with self.lock:
            already_dead = worker.retired
            if not already_dead:
                worker.draining = True
        self.events.emit("worker_drain", worker=worker_id)
        if already_dead:
            # nothing can be in flight inside a dead process; the reaper
            # already moved (or will move) its orphans to replicas.
            self.events.emit("worker_drain_complete", worker=worker_id,
                             dead=True)
            return True
        deadline = time.monotonic() + timeout
        reply = self.round_trip(MSG_DRAIN, [worker_id], timeout).get(worker_id)
        if reply is None or isinstance(reply, Exception):
            return False  # timed out, or died mid-drain
        # the worker's pending set is empty; now wait for the front end's
        # own accounting to settle (responses may still be in the pipe).
        while time.monotonic() < deadline:
            with self.lock:
                quiesced = self.depth_of(worker_id) == 0
            if quiesced:
                self.events.emit("worker_drain_complete", worker=worker_id)
                return True
            time.sleep(0.005)
        return False

    def undrain(self, worker_id: str) -> bool:
        """Return a drained worker to normal routing; ``True`` = changed."""
        worker = self.workers.get(worker_id)
        if worker is None:
            return False
        with self.lock:
            changed, worker.draining = worker.draining, False
        if changed:
            self.events.emit("worker_undrain", worker=worker_id)
        return changed

    def recycle(self, worker_id: str, timeout: float = 30.0) -> bool:
        """Planned restart of one ``live`` (or ``dead``) worker.

        See :meth:`~repro.serving.frontend.ClusterEngine.recycle_worker`.
        """
        with self.lock:
            worker = self.workers.get(worker_id)
            if (self.closing.is_set() or worker is None
                    or worker.state not in ("live", "dead")):
                return False
            self._move(worker, "recycling" if worker.state == "live"
                       else "stopped")
        try:
            drained = self.drain(worker_id, timeout=timeout)
            process = worker.process
            if process.is_alive():
                try:
                    worker.requests.put((MSG_SHUTDOWN,))
                except (ValueError, OSError):  # pragma: no cover
                    pass
                process.join(max(1.0, timeout / 2))
                if process.is_alive():  # pragma: no cover - wedged worker
                    process.terminate()
                    process.join(1.0)
            with self.lock:
                # retire, so racing submits and redispatches see the swap
                if worker.state == "recycling":
                    self._move(worker, "stopped")
            respawned = self.respawn(worker_id)
            self.undrain(worker_id)
            self.record("worker_recycle", worker=worker_id, drained=drained,
                        respawned=respawned)
            return respawned
        finally:
            # the recycle ends: ``recycling`` -> ``live``, a ``stopped``
            # worker it did not respawn -> ``dead``; a failed fork already
            # left it ``dead``.
            with self.lock:
                if worker.state in ("recycling", "stopped"):
                    self._move(worker, "live" if worker.state == "recycling"
                               else "dead")

    def close(self, timeout: float) -> None:
        """Stop every process (shutdown message, then terminate) and fail
        the pending control round-trips; the caller has set ``closing``."""
        for worker in self.workers.values():
            if not worker.retired:
                try:
                    worker.requests.put((MSG_SHUTDOWN,))
                except (ValueError, OSError):  # pragma: no cover
                    pass
        deadline = time.monotonic() + timeout
        for worker in self.workers.values():
            worker.process.join(max(0.1, deadline - time.monotonic()))
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
        with self.lock:
            control = list(self._control)
        for request_id in control:
            self._resolve_control(request_id, error=WorkerUnavailableError(
                "cluster engine closed"))


class Supervisor:
    """Respawn loop: watch the fleet, heal deaths, unstick hangs.

    Owned by :class:`~repro.serving.frontend.ClusterEngine`, which hands it
    the :class:`Fleet`; the fleet provides the mechanics and the
    supervisor the policy, reading each worker's record directly:

    * **death** — the engine's collector sees a death through the process
      sentinel and the reaper marks the worker ``dead``; each pass
      respawns ``dead`` workers under exponential backoff
      (``backoff_base`` doubling up to ``backoff_cap`` per consecutive
      short-lived incarnation; an incarnation that survives
      ``stable_after`` seconds resets the schedule), so a crash-looping
      worker cannot turn the supervisor into a fork bomb;
    * **hang** — a ``live`` worker with queued work whose last response
      (its heartbeat) is older than ``hang_timeout`` is sent a stats probe
      that must be answered within ``probe_timeout``.  The worker serves
      from one synchronous loop, so a worker busy in a sweep answers the
      probe only when that sweep ends: "hung" therefore means silent for
      ``hang_timeout + probe_timeout``, whatever the cause — a wedged
      loop, a chaos hang, or one synthesis that runs that long.  The
      process is terminated, which converts the hang into a death the
      collector retires and a later pass heals.  ``hang_timeout=None``
      disables hang detection.
    * **planned recycling** — distinct from crash healing: when
      ``max_requests_per_incarnation`` is set, a worker whose current
      incarnation has dispatched that many requests is *drained* (ring
      hands its arcs to replicas, in-flight completes) and then respawned
      via :meth:`Fleet.recycle`.  One worker recycles at a time, and a
      worker mid-recycle is ignored by the death path — a planned exit
      must not be double-healed or counted as a crash.

    Its counts (respawns, hang kills, recycles) are the engine's registry
    counters, reported by ``ClusterEngine.stats()["supervisor"]``.
    """

    def __init__(self, fleet: Fleet, *, interval: float = 0.2,
                 hang_timeout: float | None = 10.0,
                 probe_timeout: float = 2.0, backoff_base: float = 0.05,
                 backoff_cap: float = 2.0, stable_after: float = 5.0,
                 max_requests_per_incarnation: int | None = None) -> None:
        if interval <= 0.0:
            raise ValueError("interval must be > 0")
        if probe_timeout <= 0.0:
            raise ValueError("probe_timeout must be > 0")
        if (max_requests_per_incarnation is not None
                and max_requests_per_incarnation < 1):
            raise ValueError("max_requests_per_incarnation must be >= 1")
        self._fleet = fleet
        self.interval = float(interval)
        self.hang_timeout = None if hang_timeout is None else float(hang_timeout)
        self.probe_timeout = float(probe_timeout)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.stable_after = float(stable_after)
        self.max_requests_per_incarnation = max_requests_per_incarnation
        #: the running recycle (only the supervisor's own pass touches it).
        self._recycling: threading.Thread | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serving-supervisor",
                                        daemon=True)

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        self._thread.start()

    def join(self, timeout: float | None = None) -> None:
        if self._thread.is_alive():
            self._thread.join(timeout)

    def _run(self) -> None:
        while not self._fleet.closing.wait(self.interval):
            try:
                self.tick()
            except Exception:  # noqa: BLE001 - supervision must outlive bugs
                pass

    # ------------------------------------------------------------------ #
    def tick(self) -> None:
        """One supervision pass (public so tests can drive it directly)."""
        fleet = self._fleet
        now = time.monotonic()
        for worker_id, worker in fleet.workers.items():
            if fleet.closing.is_set():
                return
            if worker.state == "dead":
                self._maybe_respawn(worker, now)
            elif (worker.state == "live" and self.hang_timeout is not None
                    and worker.process.is_alive()):
                with fleet.lock:
                    busy = fleet.depth_of(worker_id) > 0
                    silent_s = now - worker.last_heard
                if (busy and silent_s > self.hang_timeout
                        and not fleet.probe(worker_id,
                                            timeout=self.probe_timeout)):
                    fleet.record("worker_hang_kill", worker=worker_id,
                                 silent_s=silent_s)
                    worker.process.terminate()  # retired, then healed
        if self.max_requests_per_incarnation is not None:
            self._maybe_recycle()

    def _maybe_recycle(self) -> None:
        """Start a planned recycle for one over-quota worker, if any.

        Serialised: at most one recycle thread at a time, and none while
        any worker is still mid-recycle or mid-spawn — a rolling restart
        effect rather than a simultaneous fleet bounce.
        """
        workers = self._fleet.workers
        if self._recycling is not None and self._recycling.is_alive():
            return
        if any(worker.state not in ("live", "dead")
               for worker in workers.values()):
            return  # a recycle or a respawn is under way
        candidate = next(
            (worker_id for worker_id in sorted(workers)
             if workers[worker_id].dispatched
             >= self.max_requests_per_incarnation), None)
        if candidate is None:
            return
        self._recycling = threading.Thread(
            target=self._recycle, args=(candidate,),
            name=f"repro-recycle-{candidate}", daemon=True)
        self._recycling.start()

    def _recycle(self, worker_id: str) -> None:
        try:
            self._fleet.recycle(worker_id)
        except Exception:  # noqa: BLE001 - supervision must outlive bugs
            pass

    def _maybe_respawn(self, worker: _Worker, now: float) -> None:
        consecutive, not_before = worker.backoff
        if now < not_before:
            return
        lifetime = now - worker.started_at
        consecutive = 0 if lifetime >= self.stable_after else consecutive + 1
        delay = min(self.backoff_cap,
                    self.backoff_base * (2.0 ** max(0, consecutive - 1)))
        worker.backoff = (consecutive, now + delay)
        self._fleet.respawn(worker.config.worker_id)

    def stats(self) -> dict:
        """The supervisor's settings (its counts live in the registry)."""
        return {"interval": self.interval,
                "hang_timeout": self.hang_timeout,
                "probe_timeout": self.probe_timeout,
                "max_requests_per_incarnation":
                    self.max_requests_per_incarnation}
