"""Same-key request coalescing: one group of requests, one fused sweep.

A service exposing the solver handles *concurrent* requests, and the paper's
workload shape — many requests against few matrices — makes naive
concurrency wasteful twice over: every request pays its own circuit sweep,
and the sweeps serialise on the CPU anyway.  The batched kernels already
collapse ``K`` same-matrix solves into one fused-plan sweep
(:meth:`repro.core.qsvt_solver.QSVTLinearSolver.solve_batch`); this module
is the piece that *finds* the batch inside a request stream.

Two front ends share one synchronous core:

* :class:`GroupSweeper` answers a :class:`SolveGroup` — requests whose
  canonical cache key (matrix fingerprint + ``ε_l`` + backend + options)
  agrees — with one cache lookup and one ``solve_batch``, so ``K``
  same-matrix requests cost one circuit replay (plus ``K`` cheap
  de-normalisations).  The serving worker's batch loop
  (:mod:`repro.serving.worker`) calls it directly.
* :class:`AsyncSolveEngine` is the in-process asyncio API over the same
  sweep: ``await engine.solve(A, b)`` joins the pending group for its key,
  and the group's flush — after ``coalesce_window`` seconds, on the next
  event-loop turn by default, or as soon as ``max_batch_size`` requests
  piled up — runs the sweep on a worker thread.

The cache can carry a persistent :class:`~repro.engine.store.SynthesisStore`,
so the first request for a known matrix restores the synthesis from disk
instead of compiling, and every request after that is an in-memory hit.

>>> engine = AsyncSolveEngine(store=SynthesisStore())
>>> records = await asyncio.gather(*[engine.solve(A, b) for b in rhs_stack])
>>> engine.stats()["batches"]          # one fused sweep, not len(rhs_stack)
1
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..core.results import SingleSolveRecord
from ..exceptions import BackendError, DimensionError, SolveTimeoutError
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext, activated, current_trace
from .cache import CompiledSolverCache

__all__ = ["AsyncSolveEngine", "GroupSweeper", "SolveGroup"]


@dataclass
class SolveGroup:
    """Requests sharing one compiled-solver key, answered by one sweep.

    Per member, in parallel lists: the right-hand side, an absolute
    ``time.monotonic()`` deadline (or ``None``), its trace (or ``None``),
    the ``time.monotonic()`` stamp it joined at and the caller's token (a
    future, a request id).
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
    count its sweeps (the only coalescing counters; each primitive is
    thread-safe, as the asyncio engine sweeps concurrently on an executor).
    Without a ``metrics`` registry the series go to a private one."""

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


@dataclass
class _PendingGroup(SolveGroup):
    """A group still open for joiners; ``sealed`` fires its flush early."""

    sealed: asyncio.Event = field(default_factory=asyncio.Event)


class AsyncSolveEngine:
    """Asyncio solver front end with same-matrix request coalescing.

    Parameters
    ----------
    cache:
        Compiled-solver cache answering the grouped requests; created fresh
        (wired to ``store``) when omitted.
    store:
        Optional :class:`~repro.engine.store.SynthesisStore` for the
        internally created cache — ignored when an explicit ``cache`` is
        passed (the cache already owns its persistence policy).
    max_batch_size:
        Cap on one coalesced sweep; when a group reaches it, the group is
        sealed and later arrivals start the next one.
    coalesce_window:
        Seconds the flush waits for stragglers after a group opens.  The
        default ``0.0`` flushes on the next event-loop turn, which already
        coalesces everything submitted in the same scheduling burst (e.g.
        one ``asyncio.gather``); a small positive window trades latency for
        larger batches under streaming arrivals.
    max_concurrency:
        Worker threads executing the fused sweeps — groups with *different*
        keys overlap up to this limit (numpy releases the GIL).

    Use ``async with`` (or call :meth:`close`) to release the worker threads
    deterministically.
    """

    def __init__(self, *, cache: CompiledSolverCache | None = None, store=None,
                 max_batch_size: int = 64, coalesce_window: float = 0.0,
                 max_concurrency: int = 4, metrics=None) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if coalesce_window < 0.0:
            raise ValueError("coalesce_window must be >= 0")
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        self.cache = cache if cache is not None else CompiledSolverCache(
            store=store, metrics=metrics)
        self.max_batch_size = int(max_batch_size)
        self.coalesce_window = float(coalesce_window)
        self.max_concurrency = int(max_concurrency)
        self._sweeper = GroupSweeper(self.cache, metrics=metrics)
        self._pending: dict[tuple, _PendingGroup] = {}
        self._executor: ThreadPoolExecutor | None = None
        self._executor_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    async def solve(self, matrix, rhs, *, epsilon_l: float = 1e-2,
                    backend: str = "auto", kappa: float | None = None,
                    fingerprint: str | None = None,
                    deadline: float | None = None,
                    **backend_options) -> SingleSolveRecord:
        """Solve ``A x = rhs`` at accuracy ``ε_l``; awaits the coalesced sweep.

        Concurrent calls whose ``(matrix bytes, ε_l, backend, κ, options)``
        agree are answered by one batched application of the compiled
        synthesis; the returned record is identical to
        :meth:`repro.core.qsvt_solver.QSVTLinearSolver.solve` for the same
        inputs.  A malformed right-hand side fails only its own call; a
        failure of the shared sweep (singular matrix) fails every member of
        the group.

        ``deadline`` (seconds from now) bounds how long the request may wait
        for its sweep: if the coalesced sweep would *start* past the
        deadline, the request fails with
        :class:`~repro.exceptions.SolveTimeoutError` instead of joining it —
        without delaying or poisoning the rest of its group.
        """
        if deadline is not None and deadline < 0.0:
            raise ValueError("deadline must be >= 0 seconds (or None)")
        key = CompiledSolverCache._key(matrix, epsilon_l, backend, kappa,
                                       backend_options, fingerprint=fingerprint)
        rhs = np.array(rhs, dtype=float, copy=True)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        group = self._pending.get(key)
        if group is None:
            from ..linalg.operators import is_structured_operator

            group = _PendingGroup(
                # private copy: the caller may mutate its array while the
                # group waits for the flush (StructuredOperator storage is
                # read-only by construction, so those are shared as-is).
                matrix=(matrix if is_structured_operator(matrix)
                        else np.array(matrix, dtype=float, copy=True)),
                epsilon_l=float(epsilon_l), backend=backend,
                kappa=kappa, fingerprint=key[0],
                backend_options=dict(backend_options))
            self._pending[key] = group
            loop.create_task(self._flush(key, group))
        group.add(rhs, future, trace=current_trace(),
                  deadline_at=None if deadline is None
                  else time.monotonic() + float(deadline))
        if len(group) >= self.max_batch_size and self._pending.get(key) is group:
            # seal the group: its flush task still owns it (and fires
            # immediately instead of waiting out the window), but newcomers
            # open a fresh group (and a fresh sweep) behind it.
            del self._pending[key]
            group.sealed.set()
        return await future

    async def _flush(self, key: tuple, group: _PendingGroup) -> None:
        """Run the group's sweep on the executor and settle its futures."""
        results: list = []
        try:
            if self.coalesce_window > 0.0:
                # wait for stragglers, but fire immediately once the group
                # fills up (solve() seals it and sets the event).
                try:
                    await asyncio.wait_for(group.sealed.wait(),
                                           timeout=self.coalesce_window)
                except asyncio.TimeoutError:  # builtin TimeoutError on 3.11+
                    pass
            else:
                await asyncio.sleep(0)  # one loop turn: drain the burst
            if self._pending.get(key) is group:
                del self._pending[key]
            results = await asyncio.get_running_loop().run_in_executor(
                self._ensure_executor(), self._sweeper.sweep, group)
        except BaseException as exc:  # noqa: BLE001 - fan the failure out
            results = [exc] * len(group)
            if not isinstance(exc, Exception):
                raise  # cancellation or exit: settled below, then propagated
        finally:
            for future, result in zip(group.tokens, results):
                if future.done():
                    continue
                if isinstance(result, BaseException):
                    future.set_exception(result)
                else:
                    future.set_result(result)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._executor_lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="repro-aio")
            return self._executor

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """:meth:`GroupSweeper.stats` plus the groups still waiting to flush."""
        return {**self._sweeper.stats(), "pending_groups": len(self._pending)}

    def close(self) -> None:
        """Shut the executor down (idempotent; pending sweeps finish first)."""
        with self._executor_lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncSolveEngine":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        self.close()
