"""Model-based test of the ``ClusterEngine`` request lifecycle.

A hypothesis ``RuleBasedStateMachine`` drives submit, worker answers (ok and
error), kills, hedge ticks, drain/undrain, respawns, planned recycles and
close against a ``ClusterEngine`` whose fleet forks nothing: every worker's
queue and process is an in-memory fake, and the engine's collector does
nothing, so the machine itself steps the collector's three actions —
``_dispatch`` of a response, the reap, and ``_scan_hedges(now)`` with
``hedge_after`` pinned and ``now`` advanced.  No process and no thread runs,
and real time decides nothing, so every interleaving the machine picks is
replayed exactly.

A worker reads its queue only when a rule says so: it answers the solves
queued before a drain or shutdown marker, then the drain handshake, or
sends its farewell and exits.  A recycle is begun, stepped one due phase
set at a time (``Fleet.step_recycle`` on the machine's clock, or a
supervisor ``tick()``), or run to completion by ``rolling_restart``.  A
rule also makes one respawn's fork fail, as ``fork()`` does when no pid is
free.

Two callers interleave through the engine's lock: a rule may let a second
caller — a recycle step (one clock period later), a reap, a respawn or a
supervisor tick — take the lock just before the n-th lock hold of the call
under way, as another thread could between two of its holds.

After every step it checks the lifecycle's invariants:

* each admitted future settles exactly once (its done-callbacks are
  counted), and a future is pending exactly while its request is in the
  request table;
* ``_depth_of(w)`` equals the live request copies the fake fleet holds on
  worker ``w`` (a ring member whose process runs);
* every lifecycle counter equals the number of its events, in
  ``stats()``, ``healthz()`` and ``/metrics`` alike;
* placement is exact: the fleet routes each fingerprint as a ring freshly
  built from the eligible workers (members not draining) would, and the
  members' arc shares are the original ones once all are members — so a
  respawn or an undrain restores the original arcs;
* every state write is an edge of ``_WORKER_TRANSITIONS``, and no state
  changes except through ``Fleet._move``;
* each kill counts one death, at most one process per worker id is
  alive, and the respawn counter (``cluster_restarts_total``) equals the
  sum of the incarnations;
* no future is pending, no process alive and no control round-trip left
  after ``close()``.
"""

from __future__ import annotations

import collections
import itertools
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.exceptions import (
    AdmissionError,
    QuotaExceededError,
    WorkerUnavailableError,
)
from repro.serving import ClusterEngine, HashRing
from repro.serving import frontend
from repro.serving.fleet import _WORKER_TRANSITIONS, Fleet, Supervisor
from repro.serving.worker import (
    MSG_DRAIN,
    MSG_SHUTDOWN,
    MSG_SOLVE,
    RECORD_FIELDS,
)
from repro.utils import matrix_fingerprint

#: the pinned hedge deadline; the machine's clock moves in whole multiples
#: of it, so the real time a step takes (far less) never decides whether a
#: request is overdue, and every example replays exactly.
HEDGE_AFTER = 10.0
NUM_WORKERS = 3
REPLICATION = 2
#: the machine's recycles drain for two clock periods and give a stopped
#: process one period (``max(1.0, timeout / 2)``) before terminating it.
RECYCLE_TIMEOUT = 2 * HEDGE_AFTER
#: the supervisor's recycle quota: only the tick rule reaches it.
QUOTA = 10_000


class _FakeQueue:
    """A worker's request queue: keeps what is put on it until answered."""

    def __init__(self) -> None:
        self.messages: list = []
        self.closed = False

    def put(self, message) -> None:
        if self.closed:
            raise ValueError("queue is closed")
        self.messages.append(message)

    def close(self) -> None:
        self.closed = True


class _FakeProcess:
    """A worker process that runs nothing: alive from start until it is
    terminated, or exits on a shutdown message it reads."""

    _pids = itertools.count(10_000)
    #: how many of the next ``start()`` calls fail, as a fork with no free
    #: pid does.
    failing_starts = 0

    def __init__(self, target=None, args=(), name=None, daemon=None) -> None:
        self.name = name
        self.requests = args[1]
        self.pid = None
        self.exitcode = None
        self._alive = False

    def start(self) -> None:
        if _FakeProcess.failing_starts:
            _FakeProcess.failing_starts -= 1
            raise OSError(11, "Resource temporarily unavailable")
        self.pid = next(self._pids)
        self._alive = True

    def is_alive(self) -> bool:
        return self._alive

    def terminate(self) -> None:
        if self._alive:
            self._alive, self.exitcode = False, -15

    def join(self, timeout=None) -> None:
        """Waiting for the process lets it read its queue: a shutdown
        message on it ends the process, as the worker's loop does."""
        if self._alive and any(message[0] == MSG_SHUTDOWN
                               for message in self.requests.messages):
            self._alive, self.exitcode = False, 0


class _FakeContext:
    """In-memory queues and processes; ``started`` keeps every process."""

    Queue = _FakeQueue

    def __init__(self) -> None:
        self.started: list[_FakeProcess] = []

    def Process(self, **kwargs) -> _FakeProcess:
        process = _FakeProcess(**kwargs)
        self.started.append(process)
        return process


class _InMemoryFleet(Fleet):
    """The real fleet mechanics over fake queues and processes; every
    state write is logged as ``(worker_id, from, to)``."""

    def __init__(self, configs, **kwargs) -> None:
        self.moves: list[tuple[str, str, str]] = []
        super().__init__(configs, context=_FakeContext(), **kwargs)

    def _move(self, worker, to: str) -> None:
        self.moves.append((worker.config.worker_id, worker.state, to))
        super()._move(worker, to)


class _RacingLock:
    """The front end's lock, able to let a second caller in.

    :meth:`race` arms ``action`` to run once, just before the lock's
    ``holds``-th acquire from now — where another thread could take the
    lock between two lock holds of the call under way (or before its
    first); :meth:`settle` runs it if the call made fewer holds.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._armed: list | None = None

    def race(self, holds: int, action) -> None:
        self._armed = [holds, action]

    def settle(self) -> None:
        armed, self._armed = self._armed, None
        if armed is not None:
            armed[1]()

    def __enter__(self):
        armed = self._armed
        if armed is not None:
            if armed[0] == 0:
                self.settle()
            else:
                armed[0] -= 1
        return self._lock.__enter__()

    def __exit__(self, *exc) -> None:
        self._lock.__exit__(*exc)


class _ModelEngine(ClusterEngine):
    _fleet_class = _InMemoryFleet

    def __init__(self, **options) -> None:
        super().__init__(**options)
        self._lock = self._fleet.lock = _RacingLock()

    def _collect(self) -> None:
        """The machine steps the collector's actions itself."""


def _draining(engine) -> set[str]:
    """The ring members the engine reports draining."""
    return set(engine.stats(include_workers=False)["ring"]["draining"])


def _system(seed: int):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    matrix = q @ np.diag(np.linspace(1.0, 3.0, 4)) @ q.T
    return matrix, rng.normal(size=4)


SYSTEMS = [_system(seed) for seed in range(3)]
FINGERPRINTS = [matrix_fingerprint(matrix) for matrix, _ in SYSTEMS]
#: one well-formed worker answer per system (its content is not checked).
ANSWERS = [
    {name: getattr(record, name) for name in RECORD_FIELDS}
    for record in (frontend._degraded_record(matrix, rhs)
                   for matrix, rhs in SYSTEMS)]


class LifecycleModel(RuleBasedStateMachine):
    #: the ``assert_counters_match_events`` fixture's checker.
    check_counters = None

    def __init__(self) -> None:
        super().__init__()
        self.engine = _ModelEngine(
            num_workers=NUM_WORKERS, replication_factor=REPLICATION,
            hedge_after=HEDGE_AFTER, respawn=False, degraded_fallback=False,
            queue_limit=4, max_redispatch=2, use_shared_memory=False,
            # an open breaker stays open for the whole example (only a
            # response closes it), again so that real time decides nothing
            breaker_reset_timeout=3600.0,
            trace_sample_rate=1.0, event_log_path=False)
        self.fleet = self.engine._fleet
        # the supervisor's pass, driven by the machine: hang detection off
        # and no backoff, so real time decides nothing here either.
        self.supervisor = Supervisor(self.fleet, hang_timeout=None,
                                     backoff_base=0.0,
                                     max_requests_per_incarnation=QUOTA)
        self.baseline = self.fleet.ring.arc_shares()
        self.clock = 0.0  # seconds the hedge clock runs ahead of real time
        self.kills = 0
        self.futures: dict[int, object] = {}  # request_id -> future
        self.settles: collections.Counter = collections.Counter()
        self.closed = False

    def teardown(self) -> None:
        self.engine.close(timeout=0.0)
        assert not self._pending()

    # ------------------------------------------------------------------ #
    def _alive(self) -> list[str]:
        return sorted(worker_id for worker_id, worker
                      in self.fleet.workers.items()
                      if worker.process.is_alive())

    def _held(self, worker_id: str) -> list:
        """Solve copies queued on a ring member whose process still runs
        (a retired worker's copies were handed off when it retired)."""
        worker = self.fleet.workers[worker_id]
        if worker.retired or not worker.process.is_alive():
            return []
        return [message for message in worker.requests.messages
                if message[0] == MSG_SOLVE]

    def _pending(self) -> set[int]:
        return {request_id for request_id, future in self.futures.items()
                if not future.done()}

    def _now(self) -> float:
        return time.monotonic() + self.clock

    def _recycling(self) -> list[str]:
        return sorted(worker_id for worker_id, worker
                      in self.fleet.workers.items()
                      if worker.recycle is not None)

    def _racing(self, data, call, worker_id: str | None = None,
                seconds=(None, "step", "reap", "respawn", "tick"),
                holds=range(5)):
        """Run ``call`` while one of ``seconds`` (``None``: nobody) takes
        the lock just before its n-th lock hold, n drawn from ``holds``
        (see :class:`_RacingLock`)."""
        second = data.draw(st.sampled_from(seconds))
        if second is not None:
            worker_id = worker_id or data.draw(
                st.sampled_from(sorted(self.fleet.workers)))
            action = {
                # a step by a thread that resumes a clock period later
                "step": lambda: self.fleet.step_recycle(
                    worker_id, now=self._now() + HEDGE_AFTER),
                "reap": self.engine._reap_dead_workers,
                "respawn": lambda: self.fleet.respawn(worker_id),
                "tick": self.supervisor.tick,
            }[second]

            def second_caller():
                try:
                    action()
                except OSError:
                    pass  # its own failed fork, raised on its own thread

            self.engine._lock.race(data.draw(st.sampled_from(holds)),
                                   second_caller)
        try:
            return call()
        finally:
            self.engine._lock.settle()

    def _owners(self) -> list[str]:
        """``live`` workers holding a copy of a pending request."""
        pending = self._pending()
        return [worker_id for worker_id in self._alive()
                if self.fleet.workers[worker_id].state == "live"
                and any(message[1] in pending
                        for message in self._held(worker_id))]

    # ------------------------------------------------------------------ #
    @rule(systems=st.lists(st.integers(0, len(SYSTEMS) - 1),
                           min_size=1, max_size=3))
    def submit(self, systems):
        for system in systems:
            matrix, rhs = SYSTEMS[system]
            if self.closed:
                with pytest.raises(RuntimeError):
                    self.engine.submit(matrix, rhs)
                continue
            try:
                future = self.engine.submit(matrix, rhs)
            except AdmissionError:
                continue  # shed at the door: never admitted
            request_id = next((request_id for request_id, entry
                               in self.engine._inflight.items()
                               if entry.future is future),
                              -1 - len(self.futures))  # settled already
            future.add_done_callback(
                lambda _, request_id=request_id: self.settles.update(
                    [request_id]))
            self.futures[request_id] = future

    @precondition(lambda self: not self.closed and any(
        self._held(worker_id) for worker_id in self._alive()))
    @rule(data=st.data(), ok=st.booleans())
    def respond(self, data, ok):
        busy = [worker_id for worker_id in self._alive()
                if self._held(worker_id)]
        worker_id = data.draw(st.sampled_from(busy))
        held = self._held(worker_id)
        message = held[data.draw(st.integers(0, len(held) - 1))]
        self.fleet.workers[worker_id].requests.messages.remove(message)
        request_id = message[1]
        system = FINGERPRINTS.index(matrix_fingerprint(message[2]))
        if ok:
            self.engine._dispatch((worker_id, "result", request_id,
                                   ANSWERS[system], None))
        else:
            self.engine._dispatch((worker_id, "error", request_id,
                                   "SingularMatrixError", "injected", None))

    @precondition(lambda self: not self.closed and self._owners())
    @rule(data=st.data())
    def kill_owner(self, data):
        worker_id = data.draw(st.sampled_from(self._owners()))
        self.fleet.workers[worker_id].process.terminate()
        self.kills += 1
        # a respawn (or a supervisor pass) may land just after the reap
        # retires the worker, or a second reaper just before
        self._racing(data, self.engine._reap_dead_workers, worker_id,
                     seconds=("respawn", "tick", "reap"), holds=(1, 0))

    def _readers(self) -> list[str]:
        """Running workers with a drain or shutdown marker queued."""
        return [worker_id for worker_id in self._alive()
                if any(message[0] in (MSG_DRAIN, MSG_SHUTDOWN) for message
                       in self.fleet.workers[worker_id].requests.messages)]

    @precondition(lambda self: not self.closed)
    @rule(data=st.data(), system=st.integers(0, len(SYSTEMS) - 1))
    def submit_then_kill_owner(self, data, system):
        """A worker dies with a request just sent to it in flight (a
        pending copy is otherwise rarely on a ``live`` worker when
        ``kill_owner`` is drawn)."""
        self.submit([system])
        if self._owners():
            self.kill_owner(data)

    @precondition(lambda self: not self.closed and self._readers())
    @rule(data=st.data())
    def worker_reads_to_a_marker(self, data):
        """A worker answers the solves queued before its first drain or
        shutdown marker, then the drain handshake — or its farewell, and
        its process exits — as the worker's loop does."""
        worker_id = data.draw(st.sampled_from(self._readers()))
        worker = self.fleet.workers[worker_id]
        messages = worker.requests.messages
        marker = next(index for index, message in enumerate(messages)
                      if message[0] in (MSG_DRAIN, MSG_SHUTDOWN))
        read, messages[:marker + 1] = messages[:marker + 1], []
        for message in read[:-1]:
            if message[0] == MSG_SOLVE:
                system = FINGERPRINTS.index(matrix_fingerprint(message[2]))
                self.engine._dispatch((worker_id, "result", message[1],
                                       ANSWERS[system], None))
        if read[-1][0] == MSG_DRAIN:
            self.engine._dispatch((worker_id, "drained", read[-1][1], {}))
        else:
            self.engine._dispatch((worker_id, "shutdown", None, {}))
            worker.process._alive, worker.process.exitcode = False, 0

    @precondition(lambda self: not self.closed)
    @rule(periods=st.integers(0, 2))
    def hedge_tick(self, periods):
        self.clock += periods * HEDGE_AFTER
        wait = self.engine._scan_hedges(time.monotonic() + self.clock)
        # the next scan is at most one floor away (up to float rounding of
        # ``oldest + floor - now``)
        assert 0.0 <= wait <= HEDGE_AFTER + 1e-9

    @precondition(lambda self: not self.closed)
    @rule(worker=st.integers(0, NUM_WORKERS - 1), draining=st.booleans())
    def drain_or_undrain(self, worker, draining):
        worker_id = f"worker-{worker}"
        if draining:
            # a zero timeout returns at once, before the worker can read
            # the handshake
            self.engine.drain(worker_id, timeout=0.0)
        else:
            self.engine.undrain(worker_id)
        assert (worker_id in _draining(self.engine)) == (
            draining and not self.fleet.workers[worker_id].retired)
        assert self.engine.healthz()["draining"][worker_id] == (
            worker_id in _draining(self.engine))

    def _dead(self) -> list[str]:
        return sorted(worker_id for worker_id, worker
                      in self.fleet.workers.items() if worker.state == "dead")

    @precondition(lambda self: not self.closed and self._dead())
    @rule(data=st.data())
    def respawn(self, data):
        worker_id = data.draw(st.sampled_from(self._dead()))
        incarnation = self.fleet.workers[worker_id].config.incarnation
        # of two racing respawns (the second may be a supervisor pass
        # healing the same worker) exactly one forks
        self._racing(data, lambda: self.fleet.respawn(worker_id), worker_id,
                     seconds=("respawn", "tick"), holds=(1, 0))
        assert self.fleet.workers[worker_id].config.incarnation == (
            incarnation + 1)
        # a worker enters ``dead`` undrained, so it comes back eligible
        assert self.fleet.workers[worker_id].state == "live"
        assert not self.fleet.workers[worker_id].draining
        assert not self._held(worker_id)  # a fresh queue

    @precondition(lambda self: not self.closed and self._dead())
    @rule(data=st.data())
    def respawn_fork_fails(self, data):
        worker_id = data.draw(st.sampled_from(self._dead()))
        worker = self.fleet.workers[worker_id]
        incarnation = worker.config.incarnation
        _FakeProcess.failing_starts = 1
        with pytest.raises(OSError):
            self.fleet.respawn(worker_id)
        # back to ``dead`` (not stuck ``spawning``), so a later respawn
        # retries the same incarnation
        assert worker.state == "dead"
        assert worker.config.incarnation == incarnation

    @precondition(lambda self: not self.closed)
    @rule(worker=st.integers(0, NUM_WORKERS - 1))
    def begin_recycle(self, worker):
        worker_id = f"worker-{worker}"
        record = self.fleet.workers[worker_id]
        state = record.state
        recycle = self.fleet.begin_recycle(worker_id, RECYCLE_TIMEOUT,
                                           now=self._now())
        assert (recycle is not None) == (state in ("live", "dead"))
        if recycle is not None:
            assert record.recycle is recycle
            assert record.state == ("recycling" if state == "live"
                                    else "stopped")
            assert record.draining == (state == "live")

    @precondition(lambda self: not self.closed and self._recycling())
    @rule(data=st.data(), periods=st.integers(0, 1),
          caller=st.sampled_from(["fleet", "supervisor"]),
          fork_fails=st.booleans())
    def step_recycle(self, data, periods, caller, fork_fails):
        """One caller steps a pending recycle — the fleet on the machine's
        clock, or a supervisor pass — while a second may race it."""
        worker_id = data.draw(st.sampled_from(self._recycling()))
        worker = self.fleet.workers[worker_id]
        incarnation = worker.config.incarnation
        events = self.engine.observability.events
        recorded = len(events.events(kind="worker_recycle"))
        self.clock += periods * HEDGE_AFTER
        step = (self.supervisor.tick if caller == "supervisor" else
                lambda: self.fleet.step_recycle(worker_id, now=self._now()))
        _FakeProcess.failing_starts = int(fork_fails)
        try:
            self._racing(data, step, worker_id)
        except OSError:
            # a fork failed: its worker waits ``dead`` for the supervisor's
            # backoff (never stuck ``spawning``), and a recycle it was
            # respawning for finished, unrespawned
            assert all(record.state != "spawning"
                       for record in self.fleet.workers.values())
            if worker.state == "dead":
                assert worker.recycle is None
                assert worker.config.incarnation == incarnation
                since = events.events(kind="worker_recycle")[recorded:]
                [finished] = [event for event in since
                              if event["worker"] == worker_id]
                assert finished["respawned"] is False
        finally:
            _FakeProcess.failing_starts = 0
        if worker.recycle is None and worker.state == "live":
            assert not worker.draining

    @precondition(lambda self: not self.closed)
    @rule(data=st.data(),
          over_quota=st.sampled_from([None, *range(NUM_WORKERS)]))
    def supervisor_tick(self, data, over_quota):
        if over_quota is not None:
            self.fleet.workers[f"worker-{over_quota}"].dispatched = QUOTA
        settled = all(worker.state in ("live", "dead")
                      for worker in self.fleet.workers.values())
        due = sorted(worker_id for worker_id, worker
                     in self.fleet.workers.items()
                     if worker.dispatched >= QUOTA)
        self._racing(data, self.supervisor.tick,
                     seconds=(None, "step", "reap", "tick"))
        # dead workers are healed, and an over-quota worker starts a
        # recycle once no recycle or respawn is under way
        assert not self._dead()
        if settled and due:
            assert self.fleet.workers[due[0]].recycle is not None or (
                self.fleet.workers[due[0]].dispatched == 0)

    @precondition(lambda self: not self.closed)
    @rule()
    def rolling_restart(self):
        before = {worker_id: (worker.state, worker.config.incarnation)
                  for worker_id, worker in self.fleet.workers.items()}
        outcomes = self.engine.rolling_restart(timeout=0.0)
        assert list(outcomes) == sorted(before)
        for worker_id, (state, incarnation) in before.items():
            worker = self.fleet.workers[worker_id]
            assert outcomes[worker_id] == (state in ("live", "dead"))
            if outcomes[worker_id]:
                assert worker.state == "live" and not worker.draining
                assert worker.config.incarnation == incarnation + 1

    @precondition(lambda self: not self.closed and len(self.futures) >= 8)
    @rule()
    def close(self):
        self.engine.close(timeout=0.0)
        self.closed = True

    # ------------------------------------------------------------------ #
    @invariant()
    def each_future_settles_once(self):
        assert all(count == 1 for count in self.settles.values())
        pending = self._pending()
        assert set(self.settles) == set(self.futures) - pending
        with self.engine._lock:
            assert set(self.engine._inflight) == pending

    @invariant()
    def depth_is_the_live_copies(self):
        pending = self._pending()
        with self.engine._lock:
            for worker_id in self.fleet.workers:
                copies = sum(1 for message in self._held(worker_id)
                             if message[1] in pending)
                assert self.engine._depth_of(worker_id) == copies, worker_id

    @invariant()
    def counters_match_events(self):
        self.check_counters(self.engine)

    @invariant()
    def placement_is_exact(self):
        records = self.fleet.workers.items()
        members = {worker_id for worker_id, worker in records
                   if worker.state in ("live", "recycling")}
        eligible = {worker_id for worker_id in members
                    if not self.fleet.workers[worker_id].draining}
        stats = self.engine.stats(include_workers=False)
        assert stats["workers_alive"] == len(members)
        assert self.engine.healthz()["workers_alive"] == len(members)
        assert set(stats["ring"]["workers"]) == members
        assert set(stats["ring"]["draining"]) == members - eligible
        shares = stats["ring"]["arc_shares"]
        assert shares == HashRing(members).arc_shares()
        if len(members) == NUM_WORKERS:
            assert shares == self.baseline
        fresh = HashRing(eligible)
        for fingerprint in FINGERPRINTS:
            if not eligible:
                with pytest.raises(WorkerUnavailableError):
                    self.fleet.route_replicas(fingerprint, REPLICATION)
                continue
            assert (self.fleet.route_replicas(fingerprint, REPLICATION)
                    == fresh.route_replicas(fingerprint, REPLICATION))

    @invariant()
    def every_state_write_is_a_table_edge(self):
        last = {}
        for worker_id, before, after in self.fleet.moves:
            assert after in _WORKER_TRANSITIONS[before]
            assert last.get(worker_id, "spawning") == before
            last[worker_id] = after
        for worker_id, worker in self.fleet.workers.items():
            assert worker.state == last[worker_id]

    @invariant()
    def one_alive_process_per_worker(self):
        alive = collections.Counter(process.name for process
                                    in self.fleet._context.started
                                    if process.is_alive())
        assert all(count == 1 for count in alive.values()), alive

    @invariant()
    def each_death_counts_once(self):
        # every kill is reaped at once, and a planned exit is no death
        assert self.engine._count("worker_death") == self.kills

    @invariant()
    def restarts_are_the_incarnations(self):
        assert self.engine._count("worker_respawn") == sum(
            worker.config.incarnation
            for worker in self.fleet.workers.values())

    @invariant()
    def nothing_pending_after_close(self):
        if self.closed:
            assert not self._pending()
            assert self.engine.stats(include_workers=False)["inflight"] == 0
            assert not self._alive()
            assert not self.fleet._control


def test_request_lifecycle_model(assert_counters_match_events):
    LifecycleModel.check_counters = staticmethod(assert_counters_match_events)
    run_state_machine_as_test(LifecycleModel, settings=settings(
        max_examples=40, stateful_step_count=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))


# ---------------------------------------------------------------------- #
# directed checks on the same in-memory fleet
# ---------------------------------------------------------------------- #
def _model_engine(**options) -> _ModelEngine:
    config = dict(num_workers=2, replication_factor=2, respawn=False,
                  degraded_fallback=False, use_shared_memory=False,
                  event_log_path=False)
    config.update(options)
    return _ModelEngine(**config)


def _system_owned_by(engine, worker_id: str):
    """A test system whose ring primary is ``worker_id``."""
    for seed in range(100):
        matrix, rhs = _system(seed)
        if engine.route(matrix) == worker_id:
            return matrix, rhs
    raise AssertionError(f"no system routes to {worker_id}")


def test_an_illegal_state_move_raises():
    engine = _model_engine()
    try:
        worker = engine._fleet.workers["worker-0"]
        with engine._lock, pytest.raises(RuntimeError, match="illegal"):
            engine._fleet._move(worker, "stopped")   # live -> stopped
        assert worker.state == "live"
    finally:
        engine.close(timeout=0.0)


def test_drain_flag_lives_on_the_record():
    engine = _model_engine(num_workers=3)
    fleet = engine._fleet
    try:
        engine.drain("worker-0", timeout=0.0)
        engine.drain("worker-0", timeout=0.0)        # idempotent
        assert _draining(engine) == {"worker-0"}
        assert engine.undrain("worker-0") is True
        assert engine.undrain("worker-0") is False   # already undrained
        with pytest.raises(ValueError, match="unknown worker"):
            engine.drain("ghost", timeout=0.0)
        assert engine.undrain("ghost") is False
        # a death leaves the worker undrained, and a drain of a retired
        # worker marks nothing
        engine.drain("worker-1", timeout=0.0)
        fleet.workers["worker-1"].process.terminate()
        engine._reap_dead_workers()
        assert fleet.workers["worker-1"].draining is False
        assert engine.drain("worker-1", timeout=0.0) is True
        assert fleet.workers["worker-1"].draining is False
        assert fleet.respawn("worker-1") is True
        assert engine.stats(include_workers=False)["ring"]["draining"] == []
    finally:
        engine.close(timeout=0.0)


def test_a_stopped_recycle_target_leaves_the_members():
    # while a recycle has stopped a worker it is retired: off the ring's
    # members and out of every alive count, until its respawn is back.
    engine = _model_engine(num_workers=3)
    fleet = engine._fleet
    seen = {}
    respawn = fleet.respawn

    def observing_respawn(worker_id):
        seen["state"] = fleet.workers[worker_id].state
        seen["stats"] = engine.stats(include_workers=False)["workers_alive"]
        seen["healthz"] = engine.healthz()["workers_alive"]
        seen["alive"] = engine.workers_alive
        seen["ring"] = engine.stats(include_workers=False)["ring"]["workers"]
        return respawn(worker_id)

    fleet.respawn = observing_respawn
    try:
        assert engine.recycle_worker("worker-1", timeout=0.0) is True
        assert seen == {"state": "stopped", "stats": 2, "healthz": 2,
                        "alive": ["worker-0", "worker-2"],
                        "ring": ["worker-0", "worker-2"]}
        assert fleet.workers["worker-1"].state == "live"
        assert engine.workers_alive == ["worker-0", "worker-1", "worker-2"]
        assert _draining(engine) == set()
    finally:
        engine.close(timeout=0.0)


def test_a_recycle_whose_drain_times_out_hands_its_copy_to_a_replica():
    # the copy still queued on the worker when the drain gives up is handed
    # off as the worker stops, not lost behind the respawn's fresh queues.
    engine = _model_engine(num_workers=3)
    fleet = engine._fleet
    try:
        future = engine.submit(*_system_owned_by(engine, "worker-1"))
        assert future.worker_id == "worker-1"
        assert engine.recycle_worker("worker-1", timeout=0.0) is True
        for _ in range(3):
            engine._reap_dead_workers()
        replica = future.worker_id
        assert replica != "worker-1"
        [copy] = [message for message
                  in fleet.workers[replica].requests.messages
                  if message[0] == MSG_SOLVE]
        engine._dispatch((replica, "result", copy[1], ANSWERS[0], None))
        assert future.result(timeout=0).degraded is False
        stats = engine.stats(include_workers=False)
        assert stats["inflight"] == 0
        assert stats["queue_depths"]["worker-1"] == 0
        events = engine.observability.events
        assert events.events(kind="worker_death") == []
        [recycle] = events.events(kind="worker_recycle")
        assert recycle["drained"] is False and recycle["respawned"] is True
    finally:
        engine.close(timeout=0.0)


def test_a_crash_before_its_reap_is_no_planned_recycle():
    # a recycle must not adopt a crash the reaper has not retired yet: the
    # crash stays a death, and its copy goes to a replica at the reap.
    engine = _model_engine(num_workers=3)
    fleet = engine._fleet
    try:
        future = engine.submit(*_system_owned_by(engine, "worker-1"))
        fleet.workers["worker-1"].process.terminate()
        assert engine.recycle_worker("worker-1", timeout=0.0) is False
        engine._reap_dead_workers()
        assert fleet.workers["worker-1"].state == "dead"
        assert engine.stats(include_workers=False)["worker_deaths"] == 1
        assert future.worker_id != "worker-1"
    finally:
        engine.close(timeout=0.0)


@pytest.mark.parametrize("phase", ["drain", "stop", "respawn"])
def test_close_during_a_pending_recycle_leaves_nothing_behind(phase):
    engine = _model_engine(num_workers=3)
    fleet = engine._fleet
    worker = fleet.workers["worker-1"]
    future = engine.submit(*_system_owned_by(engine, "worker-1"))
    now = time.monotonic()
    fleet.begin_recycle("worker-1", timeout=10.0, now=now)
    if phase != "drain":       # the drain gives up: shutdown sent
        fleet.step_recycle("worker-1", now=now + 10.0)
        assert worker.state == "stopped"
    if phase == "respawn":     # the worker exits; a second caller respawns
        worker.process.join()
        assert fleet.respawn("worker-1") is True
        assert worker.state == "recycling" and worker.recycle is not None
    engine.close(timeout=0.0)
    assert not [process for process in fleet._context.started
                if process.is_alive()]
    assert future.done()
    assert not fleet._control


def test_supervisor_retries_a_failed_fork_under_backoff():
    engine = _model_engine()
    fleet = engine._fleet
    supervisor = Supervisor(fleet, hang_timeout=None, backoff_base=0.01,
                            backoff_cap=0.02)
    worker = fleet.workers["worker-0"]
    try:
        worker.process.terminate()
        engine._reap_dead_workers()
        _FakeProcess.failing_starts = 1
        with pytest.raises(OSError):
            supervisor.tick()
        assert worker.state == "dead" and worker.config.incarnation == 0
        deadline = time.monotonic() + 5.0
        while worker.state != "live" and time.monotonic() < deadline:
            time.sleep(0.005)
            supervisor.tick()
        assert worker.state == "live" and worker.config.incarnation == 1
    finally:
        _FakeProcess.failing_starts = 0
        engine.close(timeout=0.0)


def test_a_rejected_admission_gives_back_the_probe():
    # worker-0's breaker is half-open; a tenant over its quota is rejected
    # at worker-0 after its selection claimed the probe.  The next request
    # for worker-0's fingerprint must still probe worker-0 (and close its
    # breaker) rather than fail over to worker-1.
    engine = _model_engine(tenant_rate=1e-6, tenant_burst=1,
                           breaker_failure_threshold=1,
                           breaker_reset_timeout=0.01)
    fleet = engine._fleet
    try:
        mine, other = (_system_owned_by(engine, worker_id)
                       for worker_id in ("worker-0", "worker-1"))
        engine.submit(*other, tenant="noisy")    # spends the tenant's token
        breaker = fleet.workers["worker-0"].breaker
        breaker.record_failure()
        time.sleep(0.02)
        assert breaker.state == "half-open"
        with pytest.raises(QuotaExceededError):
            engine.submit(*mine, tenant="noisy")
        future = engine.submit(*mine)
        assert future.worker_id == "worker-0"
        kind, request_id = fleet.workers["worker-0"].requests.messages[-1][:2]
        assert kind == MSG_SOLVE
        engine._dispatch(("worker-0", "result", request_id,
                          ANSWERS[0], None))
        assert breaker.state == "closed"
    finally:
        engine.close(timeout=0.0)


def test_an_unsent_copy_gives_back_the_probe():
    engine = _model_engine(breaker_failure_threshold=1,
                           breaker_reset_timeout=0.01)
    fleet = engine._fleet
    try:
        breaker = fleet.workers["worker-0"].breaker
        breaker.record_failure()
        time.sleep(0.02)
        assert fleet.select(["worker-0"]) == ("worker-0", True)
        assert fleet.select(["worker-0"]) == (None, False)  # probe taken
        # a hedge whose request is no longer in the table is never sent
        engine._send(-1, object(), "worker-0", hedge=True, probe=True)
        assert fleet.select(["worker-0"]) == ("worker-0", True)
    finally:
        engine.close(timeout=0.0)


def test_a_redispatch_skips_a_replica_whose_breaker_is_open():
    # worker-1 dies holding a request whose other replica, worker-0, has an
    # open breaker: the copy goes on round the ring to worker-2, which
    # admits it, never to the refusing worker-0.
    engine = _model_engine(num_workers=3, breaker_failure_threshold=1,
                           breaker_reset_timeout=3600.0)
    fleet = engine._fleet
    try:
        matrix, rhs = next(
            system for system in map(_system, range(100))
            if fleet.route_replicas(matrix_fingerprint(system[0]), 2)
            == ["worker-1", "worker-0"])
        future = engine.submit(matrix, rhs)
        assert future.worker_id == "worker-1"
        fleet.workers["worker-0"].breaker.record_failure()
        assert fleet.workers["worker-0"].breaker.state == "open"
        fleet.workers["worker-1"].process.terminate()
        engine._reap_dead_workers()
        assert future.worker_id == "worker-2"
        [copy] = [message for message
                  in fleet.workers["worker-2"].requests.messages
                  if message[0] == MSG_SOLVE]
        assert not [message for message
                    in fleet.workers["worker-0"].requests.messages
                    if message[0] == MSG_SOLVE]
        engine._dispatch(("worker-2", "result", copy[1], ANSWERS[0], None))
        assert future.result(timeout=0).degraded is False
    finally:
        engine.close(timeout=0.0)


def test_a_redispatch_no_worker_admits_takes_the_failure_branch():
    # with every surviving breaker open the copy is sent nowhere: the
    # request fails with the typed retriable error (degrading is off).
    engine = _model_engine(num_workers=3, breaker_failure_threshold=1,
                           breaker_reset_timeout=3600.0)
    fleet = engine._fleet
    try:
        future = engine.submit(*_system_owned_by(engine, "worker-1"))
        for worker_id in ("worker-0", "worker-2"):
            fleet.workers[worker_id].breaker.record_failure()
        fleet.workers["worker-1"].process.terminate()
        engine._reap_dead_workers()
        with pytest.raises(WorkerUnavailableError):
            future.result(timeout=0)
        assert not [message for worker_id in ("worker-0", "worker-2")
                    for message in fleet.workers[worker_id].requests.messages
                    if message[0] == MSG_SOLVE]
    finally:
        engine.close(timeout=0.0)
