"""Model-based test of the ``ClusterEngine`` request lifecycle.

A hypothesis ``RuleBasedStateMachine`` drives submit, worker answers (ok and
error), kills, hedge ticks, drain/undrain, respawns and close against a
``ClusterEngine`` whose fleet forks nothing: every worker's queue and
process is an in-memory fake, and the engine's collector does nothing, so
the machine itself steps the collector's three actions — ``_dispatch`` of
a response, the reap, and ``_scan_hedges(now)`` with ``hedge_after``
pinned and ``now`` advanced.  No process and no thread runs, and real
time decides nothing, so every interleaving the machine picks is replayed
exactly.

After every step it checks the lifecycle's invariants:

* each admitted future settles exactly once (its done-callbacks are
  counted), and a future is pending exactly while its request is in the
  request table;
* ``_depth_of(w)`` equals the live request copies the fake fleet holds on
  worker ``w``;
* every lifecycle counter equals the number of its events, in
  ``stats()``, ``healthz()`` and ``/metrics`` alike;
* placement is exact: the ring equals a ring freshly built from its
  members (so a respawn or an undrain restores the original arcs), and it
  holds exactly the workers that are not retired;
* no future is pending after ``close()``.
"""

from __future__ import annotations

import collections
import itertools
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

from repro.exceptions import AdmissionError
from repro.serving import ClusterEngine, HashRing
from repro.serving import frontend
from repro.serving.fleet import Fleet
from repro.serving.worker import MSG_SOLVE, RECORD_FIELDS
from repro.utils import matrix_fingerprint

#: the pinned hedge deadline; the machine's clock moves in whole multiples
#: of it, so the real time a step takes (far less) never decides whether a
#: request is overdue, and every example replays exactly.
HEDGE_AFTER = 10.0
NUM_WORKERS = 3
REPLICATION = 2


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
    """A worker process that runs nothing: alive from start to terminate."""

    _pids = itertools.count(10_000)

    def __init__(self, target=None, args=(), name=None, daemon=None) -> None:
        self.name = name
        self.pid = None
        self.exitcode = None
        self._alive = False

    def start(self) -> None:
        self.pid = next(self._pids)
        self._alive = True

    def is_alive(self) -> bool:
        return self._alive

    def terminate(self) -> None:
        if self._alive:
            self._alive, self.exitcode = False, -15

    def join(self, timeout=None) -> None:
        pass


class _FakeContext:
    Queue = _FakeQueue
    Process = _FakeProcess


class _InMemoryFleet(Fleet):
    """The real fleet mechanics over fake queues and processes."""

    def __init__(self, configs, **kwargs) -> None:
        super().__init__(configs, context=_FakeContext(), **kwargs)


class _ModelEngine(ClusterEngine):
    _fleet_class = _InMemoryFleet

    def _collect(self) -> None:
        """The machine steps the collector's actions itself."""


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
        self.baseline = self.engine._ring.arc_shares()
        self.clock = 0.0  # seconds the hedge clock runs ahead of real time
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
        """Solve copies queued on a worker whose process still runs."""
        worker = self.fleet.workers[worker_id]
        if not worker.process.is_alive():
            return []
        return [message for message in worker.requests.messages
                if message[0] == MSG_SOLVE]

    def _pending(self) -> set[int]:
        return {request_id for request_id, future in self.futures.items()
                if not future.done()}

    def _owners(self) -> list[str]:
        """``live`` workers holding at least one solve copy."""
        return [worker_id for worker_id in self._alive()
                if self.fleet.workers[worker_id].state == "live"
                and self._held(worker_id)]

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
        self.engine._reap_dead_workers()

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
            # a zero timeout returns at once: the fake worker never acks
            self.engine.drain(worker_id, timeout=0.0)
        else:
            self.engine.undrain(worker_id)
        assert (worker_id in self.engine._ring.draining) == (
            draining and worker_id in self.engine._ring)

    def _dead(self) -> list[str]:
        return sorted(worker_id for worker_id, worker
                      in self.fleet.workers.items() if worker.state == "dead")

    @precondition(lambda self: not self.closed and self._dead())
    @rule(data=st.data())
    def respawn(self, data):
        worker_id = data.draw(st.sampled_from(self._dead()))
        assert self.fleet.respawn(worker_id) is True
        assert self.fleet.workers[worker_id].state == "live"
        assert not self._held(worker_id)  # a fresh queue

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
        ring = self.engine._ring
        assert set(ring.workers) == {
            worker_id for worker_id, worker in self.fleet.workers.items()
            if not worker.retired}
        fresh = HashRing(ring.workers, vnodes=ring.vnodes)
        for worker_id in ring.draining:
            fresh.set_draining(worker_id, True)
        assert ring.arc_shares() == fresh.arc_shares()
        if len(ring) == NUM_WORKERS:
            assert ring.arc_shares() == self.baseline
        if set(ring.workers) > set(ring.draining):
            for fingerprint in FINGERPRINTS:
                assert (ring.route_replicas(fingerprint, REPLICATION)
                        == fresh.route_replicas(fingerprint, REPLICATION))

    @invariant()
    def nothing_pending_after_close(self):
        if self.closed:
            assert not self._pending()
            assert self.engine.stats(include_workers=False)["inflight"] == 0


def test_request_lifecycle_model(assert_counters_match_events):
    LifecycleModel.check_counters = staticmethod(assert_counters_match_events)
    run_state_machine_as_test(LifecycleModel, settings=settings(
        max_examples=40, stateful_step_count=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow]))
