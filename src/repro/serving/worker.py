"""Serving-tier worker: one process, one hot shard of the fingerprint space.

A worker owns the arc of matrix fingerprints the
:class:`~repro.serving.router.HashRing` assigns it, and keeps that arc
*hot* by wrapping the whole single-process serving stack from PRs 1–5:

* a :class:`~repro.engine.cache.CompiledSolverCache` (per-worker LRU) over a
  :class:`~repro.engine.store.TieredSynthesisStore` (node-local directory →
  shared fleet directory), so a cold worker warm-starts from disk instead of
  re-synthesising;
* one synchronous batch loop: a blocking ``get`` on the request queue,
  then a greedy non-blocking drain until the queue is empty.  The burst's
  solves are grouped by cache key (matrix fingerprint + ``ε_l`` + backend
  + options, split at ``max_batch_size``), each group (a
  :class:`SolveGroup`) is answered by one fused ``solve_batch`` sweep through
  :meth:`GroupSweeper.sweep` — ``K`` same-matrix requests cost one circuit
  replay plus ``K`` cheap de-normalisations — and every request gets its
  answer.  Stats, drain and warm messages are handled inline, in burst
  order; a drain is acknowledged only after every solve queued before it
  has been answered.  No reader thread, event loop or executor sits
  between the queue and the sweep.

Transport is deliberately boring: stdlib :mod:`multiprocessing` queues
carrying picklable tuples (see :data:`MessageKinds` below).  Matrices arrive
either inline (small/one-shot) or as
:class:`~repro.engine.sharedmem.SharedMatrixHandle` references that the
worker attaches zero-copy — the parent publishes each distinct matrix once,
and the handle's publish-time fingerprint doubles as the cache key, so
workers never re-hash bytes.

Per-request failures are *answers*, never crashes: every exception inside a
request is serialised back as an ``("error", ...)`` response carrying the
exception type name, which the front end re-raises as the matching
:mod:`repro.exceptions` class.  The worker loop itself only exits on the
explicit shutdown message.

**Fault injection** — a :class:`~repro.serving.resilience.ChaosPolicy`
(from :attr:`WorkerConfig.chaos` or the ``REPRO_CHAOS`` environment
variable) can deterministically script crashes, hangs, slow responses,
queue stalls and corrupted store payloads, so every recovery path of the
supervisor/retry layer is testable.  Hangs and slow responses are both a
``time.sleep`` of the whole loop: a slow worker is a whole-worker gray
failure, the case hedging exists for.  With no policy configured the worker
holds ``None`` and the request path never calls in — zero overhead.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from dataclasses import dataclass, field

import numpy as np

from ..engine.cache import CompiledSolverCache
from ..engine.sharedmem import SharedMatrixHandle, attach_matrix
from ..engine.store import SynthesisStore, TieredSynthesisStore
from ..exceptions import BackendError, DimensionError, SolveTimeoutError
from ..obs.events import EventLog
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, activated

__all__ = ["WorkerConfig", "worker_main", "GroupSweeper", "SolveGroup",
           "MSG_SOLVE", "MSG_STATS", "MSG_SHUTDOWN", "MSG_DRAIN", "MSG_WARM"]

#: request-message kinds (first tuple element) a worker understands.
MSG_SOLVE = "solve"
MSG_STATS = "stats"
MSG_SHUTDOWN = "shutdown"
#: drain handshake: ``(MSG_DRAIN, request_id)`` — the worker answers every
#: solve enqueued *before* the drain marker (the queue is FIFO) and then
#: replies ``("drained", request_id, stats)``.  The process stays up and keeps
#: serving; drain is an admission-side state, not a shutdown.
MSG_DRAIN = "drain"
#: replica warm-up: ``(MSG_WARM, request_id, matrix, params)`` — compile or
#: store-restore the synthesis for ``matrix`` into the local cache without
#: solving anything.  Advisory and silent: failures are swallowed and no
#: response is sent; success shows up as the ``warmed`` stats counter and a
#: warm cache on failover.
MSG_WARM = "warm"

#: fields of a :class:`~repro.core.results.SingleSolveRecord` shipped back
#: in a result response (the front end rebuilds the record from them).
RECORD_FIELDS = ("x", "direction", "scale", "scaled_residual",
                 "block_encoding_calls", "polynomial_degree",
                 "success_probability", "shots", "wall_time")


#: environment variables that cap the BLAS/OpenMP pools of a worker process.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: keeps the optional threadpoolctl limiter alive for the worker's lifetime
#: (dropping it would restore the pre-cap pool sizes).
_THREADPOOL_LIMITER = None


def _limit_worker_threads(threads: int | None) -> None:
    """Pin this process's BLAS/OpenMP thread pools to ``threads``.

    Sets the standard environment knobs (authoritative for libraries loaded
    after this call — the spawn start method, lazily loaded backends) and,
    when ``threadpoolctl`` is importable, additionally caps the pools of
    already-loaded libraries, which is what matters under the fork start
    method where numpy's BLAS is live before the worker exists.
    """
    if threads is None:
        return
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(threads)
    try:  # runtime cap for already-initialised pools (optional dependency)
        import threadpoolctl

        global _THREADPOOL_LIMITER
        _THREADPOOL_LIMITER = threadpoolctl.threadpool_limits(limits=threads)
    except ImportError:
        pass


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable construction recipe for one worker process.

    Attributes
    ----------
    worker_id:
        Ring identity (also stamped into every response).
    local_store_dir / shared_store_dir:
        The disk levels of the tiered cache hierarchy.  ``None`` for both
        disables persistence; a shared dir alone still warm-starts reads.
    cache_maxsize:
        Per-worker compiled-solver LRU entries.
    max_batch_size:
        Cap on one fused sweep: a burst's same-key solves beyond it start
        the next group.
    threads:
        BLAS/OpenMP thread cap for the worker process (``None`` = leave
        library defaults).
    incarnation:
        0 for the original spawn; the supervisor increments it on every
        respawn.  It namespaces the chaos RNG streams (so a respawned
        worker replays a *different* but reproducible fault schedule) and
        is reported in stats for observability.
    chaos:
        Optional :class:`~repro.serving.resilience.ChaosSpec` (or plain
        dict) scripting deterministic faults; ``None`` falls back to the
        ``REPRO_CHAOS`` environment variable, and an absent/inert spec
        costs nothing.
    """

    worker_id: str
    local_store_dir: str | None = None
    shared_store_dir: str | None = None
    cache_maxsize: int = 32
    max_batch_size: int = 64
    threads: int | None = 1
    incarnation: int = 0
    chaos: object | None = None
    #: append-only JSONL lifecycle/fault log shared with the front end
    #: (``None`` falls back to ``REPRO_EVENT_LOG``; empty env = memory-only).
    event_log_path: str | None = None

    def build_store(self, chaos=None, events=None):
        """The tiered store this config describes (``None`` = no persistence).

        ``chaos`` (a resolved :class:`~repro.serving.resilience.ChaosPolicy`)
        attaches to the **node-local** level only: corrupted payloads are a
        per-node fault, and keeping the shared level clean means quarantine
        tests observe exactly one corruption site.
        """
        if self.local_store_dir is None and self.shared_store_dir is None:
            return None
        if self.local_store_dir is None:
            # read-mostly deployment: the shared directory is still worth
            # consulting, with a node-local level living under it in spirit
            # only — single-level store, no promotion target.
            return SynthesisStore(self.shared_store_dir, chaos=chaos,
                                  events=events)
        return TieredSynthesisStore(
            SynthesisStore(self.local_store_dir, chaos=chaos),
            self.shared_store_dir, events=events)

    def build_chaos(self):
        """Resolved :class:`ChaosPolicy` for this incarnation (``None`` = off)."""
        from .resilience import ChaosPolicy

        return ChaosPolicy.resolve(self.chaos, worker_id=self.worker_id,
                                   incarnation=self.incarnation)


@dataclass
class SolveGroup:
    """Requests sharing one compiled-solver key, answered by one sweep.

    Per member, in parallel lists: the right-hand side, an absolute
    ``time.monotonic()`` deadline (or ``None``), its trace (or ``None``),
    the ``time.monotonic()`` stamp it joined at and the caller's token (the
    request id).
    """

    matrix: object
    epsilon_l: float
    backend: str
    kappa: float | None
    fingerprint: str | None
    backend_options: dict
    rhs: list = field(default_factory=list)
    deadlines: list = field(default_factory=list)
    traces: list = field(default_factory=list)
    joined: list = field(default_factory=list)
    tokens: list = field(default_factory=list)

    def add(self, rhs, token, *, deadline_at=None, trace=None) -> None:
        self.rhs.append(rhs)
        self.tokens.append(token)
        self.deadlines.append(deadline_at)
        self.traces.append(trace)
        self.joined.append(time.monotonic())

    def __len__(self) -> int:
        return len(self.rhs)


def _rhs_error(rhs, dimension: int) -> Exception | None:
    """Why ``rhs`` cannot join a sweep against an ``N = dimension`` matrix."""
    rhs = np.asarray(rhs)
    if rhs.shape != (dimension,):
        return DimensionError(f"right-hand side has shape {rhs.shape}, "
                              f"expected ({dimension},)")
    if not np.isfinite(rhs).all():
        return ValueError("right-hand side has non-finite entries")
    if not rhs.any():
        return BackendError("cannot apply the inverse to a zero right-hand side")
    return None


class GroupSweeper:
    """A compiled-solver cache plus the ``engine_*`` registry series that
    count its sweeps (the only coalescing counters; each registry primitive
    is thread-safe, so concurrent sweeps count exactly).  Without a
    ``metrics`` registry the series go to a private one."""

    def __init__(self, cache: CompiledSolverCache, *, metrics=None) -> None:
        metrics = MetricsRegistry() if metrics is None else metrics
        self.cache = cache
        self._m_requests = metrics.counter(
            "engine_requests_total", "Solve requests entering coalescing")
        self._m_batches = metrics.counter(
            "engine_batches_total", "Fused sweeps executed")
        self._m_timeouts = metrics.counter(
            "engine_timeouts_total",
            "Requests expired before their sweep started")
        # its lifetime count and max are stats()' batches / largest_batch.
        self._m_batch_width = metrics.histogram(
            "engine_batch_width", "Coalesced requests per fused sweep"
        ).labelled()
        # the registry series *is* the stats()["latency"] histogram.
        self._latency = metrics.histogram(
            "engine_latency_seconds",
            "End-to-end coalesced solve latency").labelled()

    def sweep(self, group: SolveGroup) -> list:
        """Answer every member of ``group``: its record or its exception.

        At sweep start, members past their deadline fail with
        :class:`~repro.exceptions.SolveTimeoutError`; after the one cache
        lookup, members whose right-hand side is not a finite, nonzero
        ``(N,)`` vector fail with their own error.  Neither costs solve work
        or poisons the rest: the survivors share one ``solve_batch``.  A
        failure of the shared work (singular matrix, failed synthesis) is
        every survivor's answer.
        """
        now = time.monotonic()
        results: list = [None] * len(group)
        pending, sampled = [], []
        for index, (expires, trace, joined) in enumerate(zip(
                group.deadlines, group.traces, group.joined)):
            if expires is not None and now > expires:
                results[index] = SolveTimeoutError(
                    f"deadline expired {now - expires:.4f}s before the "
                    "coalesced sweep started", late_by=now - expires)
                continue
            pending.append(index)
            if trace is not None and trace.sampled:
                sampled.append(trace)
                trace.add_span("coalesce", start=joined, duration=now - joined,
                               batch=len(group))
        timeouts = len(group) - len(pending)
        self._m_requests.inc(len(group))
        if timeouts:
            self._m_timeouts.inc(timeouts)
        if not pending:
            return results
        # one sweep answers N member requests: record its spans once into a
        # collector context, then adopt them (by reference — shared span_ids)
        # into every sampled member trace.
        collector = (TraceContext(sampled[0].trace_id, sampled=True,
                                  origin="sweep") if sampled else None)
        try:
            with activated(collector):
                solver = self.cache.solver(
                    group.matrix, epsilon_l=group.epsilon_l,
                    backend=group.backend, kappa=group.kappa,
                    fingerprint=group.fingerprint, **group.backend_options)
                for index in pending:
                    results[index] = _rhs_error(group.rhs[index],
                                                solver.dimension)
                live = [index for index in pending if results[index] is None]
                if not live:
                    return results
                records = solver.solve_batch(
                    np.stack([group.rhs[index] for index in live]))
        except Exception as exc:  # noqa: BLE001 - every survivor's answer
            for index in pending:
                if results[index] is None:
                    results[index] = exc
            return results
        self._m_batches.inc()
        self._m_batch_width.record(float(len(records)))
        if collector is not None:
            shared = collector.spans
            for trace in sampled:
                trace.adopt(shared)
        done = time.monotonic()
        for index, record in zip(live, records):
            results[index] = record
            self._latency.record(done - group.joined[index])
        return results

    def stats(self) -> dict:
        """Coalescing counters, the completed-solve latency histogram
        (p50/p90/p99 — the single source worker telemetry and the cluster
        benchmark read percentiles from) and the cache's snapshot."""
        total = int(self._m_requests.value())
        width = self._m_batch_width.summary()
        batches = width["count"]
        return {
            "requests": total,
            "batches": batches,
            "coalesced_requests": total - batches,
            "largest_batch": int(width["max"]),
            "mean_batch_size": (total / batches) if batches else 0.0,
            "timeouts": int(self._m_timeouts.value()),
            "latency": self._latency.summary(),
            "cache": self.cache.stats(),
        }


def worker_main(config: WorkerConfig, requests, responses) -> None:
    """Process entry point: serve ``requests`` until the shutdown message.

    ``requests`` / ``responses`` are :mod:`multiprocessing` queues; every
    response tuple starts with ``(worker_id, kind, request_id, ...)``.
    """
    _limit_worker_threads(config.threads)
    chaos = config.build_chaos()
    metrics = MetricsRegistry()
    events = EventLog(config.event_log_path, source=config.worker_id)
    if chaos is not None:
        chaos.events = events
    cache = CompiledSolverCache(maxsize=config.cache_maxsize,
                                store=config.build_store(chaos=chaos,
                                                         events=events),
                                metrics=metrics)
    try:
        _serve(config, cache, requests, responses, chaos=chaos,
               metrics=metrics, events=events)
    finally:
        events.close()


def _serve(config: WorkerConfig, cache: CompiledSolverCache,
           requests, responses, chaos=None, metrics=None,
           events=None) -> None:
    metrics = MetricsRegistry() if metrics is None else metrics
    sweeper = GroupSweeper(cache, metrics=metrics)
    served = warmed = drains = request_serial = 0
    started_at = time.monotonic()
    #: this turn's solves: every group in creation order, and the groups of
    #: ``open_groups`` still below ``max_batch_size`` that newcomers join.
    groups: list[SolveGroup] = []
    open_groups: dict[tuple, SolveGroup] = {}

    def respond(kind: str, request_id, *payload) -> None:
        responses.put((config.worker_id, kind, request_id, *payload))

    if events is not None:
        # besides the (shared) JSONL file, ship every worker-side event to
        # the front end over the response queue so its in-memory ring holds
        # the whole cluster timeline.  Crash events may lose this copy (the
        # queue feeder might not flush before os._exit) — which is exactly
        # why _record_fault fsyncs the file line first.
        events.on_emit = lambda record: respond("event", None, record)

    def spans_out(trace):
        return (trace.export_spans()
                if trace is not None and trace.sampled else None)

    def join(message) -> None:
        """Admit one solve into this turn's group for its cache key."""
        nonlocal request_serial
        _, request_id, matrix, rhs, params = message
        wire = params.get("trace")
        trace = TraceContext.from_wire(wire, origin=config.worker_id)
        serial = request_serial
        request_serial += 1
        try:
            with activated(trace):
                if trace is not None and trace.sampled:
                    trace.add_span(
                        "queue_wait",
                        duration=max(0.0,
                                     time.monotonic() - wire["enqueued_at"]),
                        worker=config.worker_id,
                        incarnation=config.incarnation)
                if chaos is not None:
                    action = chaos.on_request(serial)
                    if action == "crash":
                        # a real crash: no answer, no cleanup — the front
                        # end's reaper and supervisor must cope with this.
                        os._exit(23)
                    elif action is not None:
                        # hang and slow both stall the whole loop: no
                        # answers and no stats replies until it wakes.
                        time.sleep(chaos.spec.hang_seconds if action == "hang"
                                   else chaos.spec.slow_seconds)
            matrix, epsilon_l, backend, kappa, options, fingerprint = \
                _unpack(matrix, params)
            key = CompiledSolverCache._key(matrix, epsilon_l, backend, kappa,
                                           options, fingerprint=fingerprint)
            group = open_groups.get(key)
            if group is None:
                group = open_groups[key] = SolveGroup(
                    matrix, float(epsilon_l), backend, kappa, key[0], options)
                groups.append(group)
            # deadlines are absolute CLOCK_MONOTONIC stamps taken in the
            # front end (system-wide on Linux), so time spent queued between
            # the processes counts against the budget.
            group.add(rhs, request_id, trace=trace,
                      deadline_at=params.get("deadline_at"))
            if len(group) >= config.max_batch_size:
                del open_groups[key]  # full: the next one opens a new group
        except Exception as exc:  # noqa: BLE001 - answers, not crashes
            respond("error", request_id, type(exc).__name__, str(exc),
                    spans_out(trace))

    def sweep_all() -> None:
        """One ``solve_batch`` per group, then one answer per request."""
        nonlocal served
        for group in groups:
            results = sweeper.sweep(group)
            for request_id, trace, result in zip(group.tokens, group.traces,
                                                 results):
                if isinstance(result, BaseException):
                    respond("error", request_id, type(result).__name__,
                            str(result), spans_out(trace))
                else:
                    served += 1
                    respond("result", request_id,
                            {name: getattr(result, name)
                             for name in RECORD_FIELDS},
                            spans_out(trace))
        groups.clear()
        open_groups.clear()

    def warm(message) -> None:
        """Pre-compile a replica's synthesis without solving anything.

        Usually a disk restore of what the primary persisted, so a later
        failover hits a warm cache.  Purely advisory: failures are
        swallowed, and ``request_serial`` does not advance, so warm-ups
        never shift a scripted crash schedule.
        """
        nonlocal warmed
        try:
            matrix, epsilon_l, backend, kappa, options, fingerprint = \
                _unpack(message[2], message[3])
            cache.solver(matrix, epsilon_l=epsilon_l, backend=backend,
                         kappa=kappa, fingerprint=fingerprint, **options)
            warmed += 1
        except Exception:  # noqa: BLE001 - advisory; cold replica is fine
            pass

    def stats_snapshot() -> dict:
        now = time.monotonic()
        stats = sweeper.stats()
        stats.update({
            "worker_id": config.worker_id,
            "pid": os.getpid(),
            "served": served,
            "warmed": warmed,
            "drains": drains,
            "queue_depth": (_queue_depth(requests)
                            + sum(len(group) for group in groups)),
            # CLOCK_MONOTONIC, system-wide on Linux: the front end's clock.
            "heartbeat": now,
            "uptime_s": now - started_at,
            "incarnation": config.incarnation,
            "chaos_enabled": chaos is not None,
            # snapshots are mergeable: the front end folds every worker's
            # copy into one cluster view (relabelled by worker id).
            "metrics": metrics.snapshot(),
            "metrics_snapshot_at": now,
        })
        if events is not None:
            stats["events"] = events.stats()
        return stats

    shutting_down = False
    while not shutting_down:
        message = requests.get()
        if chaos is not None:
            stall = chaos.on_drain()
            if stall > 0.0:
                # queue stall: requests pile up undrained, exactly a stuck
                # feeder thread.
                time.sleep(stall)
        # greedy drain: whatever is queued by the time the last message is
        # handled joins this turn, which is what coalesces it into few
        # sweeps; the turn sweeps once the queue is empty.
        while message is not None:
            kind = message[0]
            if kind == MSG_SOLVE:
                join(message)
            elif kind == MSG_STATS:
                respond("stats", message[1], stats_snapshot())
            elif kind == MSG_DRAIN:
                # the queue is FIFO, so every solve enqueued before the
                # drain marker has joined a group by now: sweeping them
                # *is* the drain barrier.  The loop keeps serving after.
                sweep_all()
                drains += 1
                respond("drained", message[1], stats_snapshot())
            elif kind == MSG_WARM:
                warm(message)
            elif kind == MSG_SHUTDOWN:
                shutting_down = True
                break
            else:
                respond("error", None, "ValueError",
                        f"unknown message kind {kind!r}")
            try:
                message = requests.get_nowait()
            except queue_module.Empty:
                message = None
        sweep_all()
    respond("shutdown", None, stats_snapshot())


def _unpack(matrix, params: dict) -> tuple:
    """``(matrix, ε_l, backend, κ, backend options, fingerprint)`` of a wire
    request; a shared-memory handle is attached zero-copy and its
    publish-time fingerprint reused, so the worker never re-hashes it."""
    fingerprint = None
    if isinstance(matrix, SharedMatrixHandle):
        fingerprint = matrix.fingerprint
        matrix = attach_matrix(matrix)
    return (matrix, params.get("epsilon_l", 1e-2),
            params.get("backend", "auto"), params.get("kappa"),
            params.get("backend_options", {}), fingerprint)


def _queue_depth(mp_queue) -> int:
    """Best-effort queue depth (``qsize`` is unimplemented on some platforms)."""
    try:
        return int(mp_queue.qsize())
    except (NotImplementedError, OSError):  # pragma: no cover - macOS
        return 0
