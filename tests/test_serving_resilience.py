"""Self-healing serving-tier tests: retry, breaker, chaos, supervisor.

The resilience layer's contract, clause by clause:

(a) :class:`RetryPolicy` retries only typed retriable rejections, under a
    deterministic decorrelated-jitter schedule that honours server-provided
    ``retry_after`` hints as a floor;
(b) :class:`CircuitBreaker` trips on *consecutive* failures, sheds while
    open, admits exactly one half-open probe after the reset timeout, and
    closes only on evidence of health;
(c) :class:`ChaosPolicy` decisions replay identically for the same
    (spec, worker, incarnation) and an inert spec resolves to ``None`` —
    fault injection is deterministic and free when off;
(d) the :class:`SynthesisStore` quarantines unreadable payloads (rename to
    ``*.corrupt``, count, recompile once) instead of crashing or
    re-parsing garbage forever;
(e) the supervisor heals the fleet: a killed worker is respawned with its
    id, its virtual nodes land back on exactly the arcs it owned
    (``arc_shares`` re-converge), and it warm-restores compiled state from
    the tiered store (``compiles == 0``); repeated kills mid-traffic never
    silently drop a request — every future settles with a result or a
    typed retriable error;
(f) graceful degradation: with no live owner (empty ring, open breaker,
    redispatch budget spent) the engine answers classically with
    ``degraded=True`` and 1e-10 parity to ``np.linalg.solve``, or raises
    the typed error when degradation is disabled.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.engine import CompiledSolverCache, SynthesisStore
from repro.exceptions import (
    CircuitOpenError,
    QueueFullError,
    QuotaExceededError,
    SingularMatrixError,
    WorkerUnavailableError,
)
from repro.linalg import random_matrix_with_condition_number, random_rhs
from repro.serving import (
    CHAOS_ENV_VAR,
    ChaosPolicy,
    ChaosSpec,
    CircuitBreaker,
    ClusterEngine,
    HashRing,
    RetryPolicy,
    ServingHTTPServer,
)
from repro.serving import frontend
from repro.utils import matrix_fingerprint


def _spd_system(n, kappa, seed):
    matrix = random_matrix_with_condition_number(n, kappa, rng=seed)
    return matrix, random_rhs(n, rng=seed + 1000)


def _wait_until(predicate, timeout=15.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.02)


def _routed_worker(matrix, num_workers=2):
    """Predict the cluster's routing without building one (same ring math)."""
    ring = HashRing([f"worker-{i}" for i in range(num_workers)])
    return ring.route(matrix_fingerprint(matrix))


def _arc_shares(cluster) -> dict:
    """The key-space split over the cluster's current ring members."""
    return cluster.stats(include_workers=False)["ring"]["arc_shares"]


# ---------------------------------------------------------------------- #
# (a) retry policy
# ---------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_retries_only_typed_retriable_errors(self):
        policy = RetryPolicy(max_attempts=3, rng=0, sleep=lambda s: None)
        assert policy.should_retry(QueueFullError("full"), 0)
        assert policy.should_retry(QuotaExceededError("quota"), 0)
        assert policy.should_retry(WorkerUnavailableError("dead"), 0)
        assert policy.should_retry(CircuitOpenError("open"), 0)
        assert not policy.should_retry(SingularMatrixError("singular"), 0)
        assert not policy.should_retry(RuntimeError("bug"), 0)
        # the attempt budget counts the first try
        assert policy.should_retry(QueueFullError("full"), 1)
        assert not policy.should_retry(QueueFullError("full"), 2)

    def test_type_gates_are_independent(self):
        no_admission = RetryPolicy(retry_admission=False, rng=0,
                                   sleep=lambda s: None)
        assert not no_admission.should_retry(QueueFullError("full"), 0)
        assert no_admission.should_retry(WorkerUnavailableError("dead"), 0)
        no_unavailable = RetryPolicy(retry_unavailable=False, rng=0,
                                     sleep=lambda s: None)
        assert no_unavailable.should_retry(QuotaExceededError("quota"), 0)
        assert not no_unavailable.should_retry(CircuitOpenError("open"), 0)

    def test_jitter_schedule_is_deterministic_and_bounded(self):
        def schedule(seed):
            policy = RetryPolicy(base_delay=0.05, max_delay=2.0, rng=seed,
                                 sleep=lambda s: None)
            delays, previous = [], None
            for _ in range(50):
                previous = policy.next_delay(previous)
                delays.append(previous)
            return delays

        first, second = schedule(7), schedule(7)
        assert first == second                      # replayable
        assert schedule(8) != first                 # seed actually matters
        assert all(0.05 <= delay <= 2.0 for delay in first)

    def test_retry_after_floors_the_delay(self):
        policy = RetryPolicy(base_delay=0.05, max_delay=2.0, rng=0,
                             sleep=lambda s: None)
        assert policy.next_delay(None, retry_after=1.5) >= 1.5

    def test_execute_retries_to_success_and_sleeps_the_schedule(self):
        slept = []
        policy = RetryPolicy(max_attempts=4, rng=0, sleep=slept.append)
        calls = {"count": 0}

        def flaky():
            calls["count"] += 1
            if calls["count"] < 3:
                raise QueueFullError("full", retry_after=0.2)
            return "answer"

        assert policy.execute(flaky) == "answer"
        assert calls["count"] == 3
        assert len(slept) == 2 and all(delay >= 0.2 for delay in slept)
        assert policy.stats()["retries"] == 2

    def test_execute_reraises_once_the_budget_is_spent(self):
        policy = RetryPolicy(max_attempts=2, rng=0, sleep=lambda s: None)
        calls = {"count": 0}

        def doomed():
            calls["count"] += 1
            raise QueueFullError("always full")

        with pytest.raises(QueueFullError):
            policy.execute(doomed)
        assert calls["count"] == 2


# ---------------------------------------------------------------------- #
# (b) circuit breaker
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_on_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0,
                                 clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()                    # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()                    # third consecutive
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(1.0)

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.now += 1.5
        assert breaker.state == "half-open"
        assert breaker.allow()                      # the probe slot
        assert not breaker.allow()                  # second caller shed
        breaker.record_failure()                    # probe failed
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(1.0)
        clock.now += 1.5
        assert breaker.allow()
        breaker.record_success()                    # probe succeeded
        assert breaker.state == "closed"
        assert breaker.allow() and breaker.retry_after() == 0.0
        assert breaker.stats()["trips"] == 1


# ---------------------------------------------------------------------- #
# (c) deterministic chaos
# ---------------------------------------------------------------------- #
class TestChaos:
    def test_inert_spec_resolves_to_none(self):
        assert ChaosPolicy.resolve(None, worker_id="w", environ={}) is None
        assert ChaosPolicy.resolve(ChaosSpec(), worker_id="w") is None
        assert ChaosSpec().enabled is False

    def test_env_var_resolution_round_trips(self):
        spec = ChaosSpec(seed=3, crash_points=((0, 2),), slow_rate=0.1)
        policy = ChaosPolicy.resolve(None, worker_id="worker-0",
                                     environ={CHAOS_ENV_VAR: spec.to_json()})
        assert policy is not None and policy.spec == spec
        # config spec takes precedence over the environment
        quiet = ChaosPolicy.resolve(ChaosSpec(), worker_id="worker-0",
                                    environ={CHAOS_ENV_VAR: spec.to_json()})
        assert quiet is None

    def test_unknown_spec_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown ChaosSpec"):
            ChaosSpec.from_dict({"seed": 1, "crash_probability": 0.5})

    def test_decisions_replay_identically(self):
        spec = ChaosSpec(seed=11, crash_rate=0.05, hang_rate=0.05,
                         slow_rate=0.2, stall_rate=0.3,
                         corrupt_store_rate=0.5)

        def trace(worker_id, incarnation):
            policy = ChaosPolicy(spec, worker_id=worker_id,
                                 incarnation=incarnation)
            return ([policy.on_request(i) for i in range(100)],
                    [policy.on_drain() for _ in range(50)],
                    [policy.corrupt_payload(b"x" * 64) for _ in range(20)])

        assert trace("worker-0", 0) == trace("worker-0", 0)
        assert trace("worker-0", 0) != trace("worker-1", 0)   # per worker
        assert trace("worker-0", 0) != trace("worker-0", 1)   # per incarnation

    def test_crash_points_target_one_incarnation(self):
        spec = ChaosSpec(crash_points=((0, 2),))
        original = ChaosPolicy(spec, worker_id="w", incarnation=0)
        assert [original.on_request(i) for i in range(4)] == \
            [None, None, "crash", None]
        respawned = ChaosPolicy(spec, worker_id="w", incarnation=1)
        assert all(respawned.on_request(i) is None for i in range(4))

    def test_worker_filter_disables_other_workers(self):
        spec = ChaosSpec(crash_rate=1.0, workers=("worker-1",))
        assert ChaosPolicy.resolve(spec, worker_id="worker-0") is None
        targeted = ChaosPolicy.resolve(spec, worker_id="worker-1")
        assert targeted is not None and targeted.on_request(0) == "crash"

    def test_corrupt_payload_truncates(self):
        policy = ChaosPolicy(ChaosSpec(corrupt_store_rate=1.0), worker_id="w")
        data = bytes(range(64))
        corrupted = policy.corrupt_payload(data)
        assert corrupted is not None and corrupted != data
        assert corrupted.startswith(data[:32])
        off = ChaosPolicy(ChaosSpec(crash_rate=1.0), worker_id="w")
        assert off.corrupt_payload(data) is None


# ---------------------------------------------------------------------- #
# (d) store corruption quarantine
# ---------------------------------------------------------------------- #
class TestStoreQuarantine:
    def _warm_entry(self, directory, matrix):
        store = SynthesisStore(directory)
        CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2,
                                                backend="ideal")
        entries = list(store.path.glob("*.npz"))
        assert len(entries) == 1
        return store, entries[0]

    def test_garbage_entry_is_quarantined_once_and_recompiled(self, tmp_path):
        matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
        store, entry = self._warm_entry(tmp_path, matrix)
        entry.write_bytes(b"\x00not an archive\xff")

        cache = CompiledSolverCache(store=store)
        solver = cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
        assert solver is not None
        assert cache.stats()["compiles"] == 1       # recompiled, not crashed
        stats = store.stats()
        assert stats["corrupt"] == 1 and stats["corrupt_quarantined"] == 1
        corpses = list(store.path.glob("*.corrupt"))
        assert [c.name for c in corpses] == [entry.name + ".corrupt"]
        assert corpses[0].read_bytes() == b"\x00not an archive\xff"
        assert len(store) == 1                      # the recompile re-saved a
        # clean entry; the corpse is invisible to the *.npz scan

        # the quarantined name never re-parses: a fresh reader misses clean
        rewarmed = SynthesisStore(tmp_path)
        CompiledSolverCache(store=rewarmed).solver(matrix, epsilon_l=5e-2,
                                                   backend="ideal")
        assert rewarmed.stats()["corrupt"] == 0
        assert rewarmed.stats()["hits"] == 1

    def test_chaos_corrupted_save_round_trips_into_quarantine(self, tmp_path):
        matrix = random_matrix_with_condition_number(8, 4.0, rng=43)
        chaotic = SynthesisStore(
            tmp_path, chaos=ChaosPolicy(ChaosSpec(corrupt_store_rate=1.0),
                                        worker_id="w"))
        CompiledSolverCache(store=chaotic).solver(matrix, epsilon_l=5e-2,
                                                  backend="ideal")
        assert len(chaotic) == 1                    # a (corrupted) entry landed

        clean = SynthesisStore(tmp_path)
        cache = CompiledSolverCache(store=clean)
        solver = cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
        assert solver is not None
        assert cache.stats()["compiles"] == 1
        assert clean.stats()["corrupt_quarantined"] == 1
        assert list(tmp_path.glob("*.npz.corrupt"))


# ---------------------------------------------------------------------- #
# (e) supervisor: respawn, ring re-convergence, warm restore
# ---------------------------------------------------------------------- #
class TestSelfHealing:
    def test_respawn_restores_ring_and_warm_state(self, tmp_path, kill_worker):
        matrix, rhs = _spd_system(8, 4.0, 51)
        with ClusterEngine(num_workers=2, supervisor_interval=0.05,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) as cluster:
            baseline_shares = _arc_shares(cluster)
            victim = cluster.route(matrix)
            first = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                  backend="ideal", kappa=4.0)
            assert first.scaled_residual < 1e-2 and not first.degraded

            kill_worker(cluster, victim)
            _wait_until(lambda: cluster.stats(include_workers=False)
                        ["restarts"][victim] == 1,
                        message="supervisor never respawned the victim")
            _wait_until(lambda: victim in cluster.workers_alive,
                        message="respawned worker never re-joined the ring")
            stats = cluster.stats(include_workers=False)
            assert stats["workers_alive"] == 2
            assert stats["worker_deaths"] == 1
            # same id → same vnode hashes → *exactly* the pre-death placement
            assert _arc_shares(cluster) == baseline_shares
            assert cluster.route(matrix) == victim

            again = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                  backend="ideal", kappa=4.0)
            np.testing.assert_allclose(again.x, first.x, rtol=0.0, atol=1e-12)
            snapshot = cluster.worker_stats()[victim]
            assert snapshot["incarnation"] == 1
            assert snapshot["uptime_s"] >= 0.0
            assert abs(snapshot["heartbeat"] - time.monotonic()) < 60.0
            # warm restore: the fingerprint came back from the tiered store
            assert snapshot["cache"]["compiles"] == 0
            assert snapshot["chaos_enabled"] is False

    def test_three_kills_mid_traffic_drop_nothing(self, tmp_path, kill_worker):
        # the ISSUE's satellite scenario: kill the same worker three times
        # while traffic flows; every future settles (result or typed
        # retriable error), the ring returns to full arc_shares each time,
        # and the respawned incarnations never recompile warm fingerprints.
        systems = [_spd_system(8, 4.0, seed) for seed in (61, 62, 63, 64)]
        with ClusterEngine(num_workers=2, supervisor_interval=0.05,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) as cluster:
            references = {}
            for matrix, rhs in systems:             # pre-warm every store
                references[id(matrix)] = cluster.solve(
                    matrix, rhs, epsilon_l=1e-2, backend="ideal", kappa=4.0)
            baseline_shares = _arc_shares(cluster)
            victim = cluster.route(systems[0][0])

            settled, retriable = 0, 0
            for round_index in range(3):
                futures = [cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                          backend="ideal", kappa=4.0)
                           for matrix, rhs in systems for _ in range(3)]
                kill_worker(cluster, victim)
                for future in futures:
                    try:
                        record = future.result(timeout=30.0)
                        assert record.scaled_residual < 1e-2
                    except WorkerUnavailableError:
                        retriable += 1              # typed and retriable: ok
                    settled += 1
                _wait_until(lambda: cluster.stats(include_workers=False)
                            ["restarts"][victim] == round_index + 1,
                            message=f"respawn {round_index + 1} never happened")
                _wait_until(lambda: len(cluster.workers_alive) == 2,
                            message="fleet never returned to full strength")
                assert _arc_shares(cluster) == baseline_shares
                # the respawned incarnation really serves: its answer also
                # resets the breaker's failure streak (three kills with no
                # response in between would trip it — correctly — and the
                # next round would degrade instead of dispatching).
                healed = cluster.solve(systems[0][0], systems[0][1],
                                       epsilon_l=1e-2, backend="ideal",
                                       kappa=4.0)
                assert not healed.degraded

            assert settled == 36                    # nothing dropped silently
            stats = cluster.stats(include_workers=False)
            assert stats["worker_deaths"] == 3
            assert stats["restarts"][victim] == 3
            # warm restore held across all three incarnations: every store
            # was populated before the first kill, so the respawned worker
            # answers from disk without a single recompile.
            for matrix, rhs in systems:
                record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                       backend="ideal", kappa=4.0)
                assert not record.degraded
                np.testing.assert_allclose(record.x,
                                           references[id(matrix)].x,
                                           rtol=0.0, atol=1e-12)
            assert cluster.worker_stats()[victim]["cache"]["compiles"] == 0

    def test_chaos_crash_point_redispatches_to_survivor(self, tmp_path):
        matrix, rhs = _spd_system(8, 4.0, 71)
        victim = _routed_worker(matrix)
        chaos = ChaosSpec(crash_points=((0, 0),), workers=(victim,))
        with ClusterEngine(num_workers=2, supervisor_interval=0.05,
                           chaos=chaos,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) as cluster:
            assert cluster.route(matrix) == victim   # the prediction held
            # incarnation 0 crashes while handling this very request; the
            # reaper redispatches it to the survivor, which answers.
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2 and not record.degraded
            stats = cluster.stats(include_workers=False)
            assert stats["worker_deaths"] == 1
            assert stats["redispatched"] >= 1
            _wait_until(lambda: cluster.stats(include_workers=False)
                        ["restarts"][victim] == 1,
                        message="crashed worker never respawned")
            _wait_until(lambda: cluster.route(matrix) == victim,
                        message="fingerprint never came home")
            # incarnation 1 has no crash point: the home worker serves again
            healed = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert healed.scaled_residual < 1e-2 and not healed.degraded

    def test_hung_worker_is_probed_killed_and_healed(self, tmp_path):
        matrix, rhs = _spd_system(8, 4.0, 73)
        victim = _routed_worker(matrix)
        chaos = ChaosSpec(hang_rate=1.0, hang_seconds=60.0, workers=(victim,))
        with ClusterEngine(num_workers=2, supervisor_interval=0.1,
                           hang_timeout=0.4, chaos=chaos) as cluster:
            # the victim's batch loop wedges on the first request: its
            # heartbeat goes stale, the probe times out, the supervisor
            # terminates it, and the death path redispatches the request.
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2
            supervisor = cluster.stats(include_workers=False)["supervisor"]
            assert supervisor["hang_kills"] >= 1

    def test_slow_sweep_within_probe_timeout_is_not_killed(self):
        # a worker busy in one long (chaos-slowed) sweep answers no probe
        # until the sweep ends; "hung" means silent for hang_timeout +
        # probe_timeout, so a 1 s stall under a 0.3 s heartbeat bound and a
        # 2 s probe survives — and its request settles normally.
        matrix, rhs = _spd_system(8, 4.0, 74)
        chaos = ChaosSpec(slow_rate=1.0, slow_seconds=1.0)
        with ClusterEngine(num_workers=1, replication_factor=1,
                           supervisor_interval=0.05, hang_timeout=0.3,
                           probe_timeout=2.0, chaos=chaos) as cluster:
            probes = []
            probe = cluster._fleet.probe

            def counting_probe(worker_id, timeout=None):
                answered = probe(worker_id, timeout=timeout)
                probes.append(answered)
                return answered

            cluster._fleet.probe = counting_probe
            record = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                    backend="ideal",
                                    kappa=4.0).result(timeout=30.0)
            assert record.scaled_residual < 1e-2 and not record.degraded
            _wait_until(lambda: probes, message="the supervisor never probed")
            supervisor = cluster.stats(include_workers=False)["supervisor"]
            assert supervisor["hang_kills"] == 0
            assert all(probes)
            assert cluster.stats(include_workers=False)["worker_deaths"] == 0

    def test_racing_reapers_count_one_death(self):
        # two reaper passes that find the same death at once: only the one
        # that retires the worker records the death and charges its breaker.
        with ClusterEngine(num_workers=2, respawn=False, hedging=False,
                           event_log_path=False) as cluster:
            process = cluster._fleet.workers["worker-0"].process
            reapers = [threading.Thread(target=cluster._reap_dead_workers)
                       for _ in range(2)]
            with cluster._lock:
                process.terminate()
                process.join(5.0)
                for thread in reapers:
                    thread.start()
                time.sleep(0.2)
            for thread in reapers:
                thread.join(timeout=10.0)
            stats = cluster.stats(include_workers=False)
            assert stats["worker_deaths"] == 1
            assert stats["breakers"]["worker-0"]["consecutive_failures"] == 1

    def test_racing_respawns_of_one_dead_worker_fork_once(
            self, kill_worker, assert_counters_match_events):
        # the supervisor and a recycle can both reach one dead worker: the
        # respawn claims the next incarnation under the lock before it
        # forks, so of four racing callers exactly one forks, and no second
        # process outlives close().
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ClusterEngine(num_workers=2, respawn=False, hedging=False,
                               event_log_path=False) as cluster:
                kill_worker(cluster, "worker-0")
                _wait_until(lambda: "worker-0" not in cluster.workers_alive,
                            message="death never detected")
                barrier = threading.Barrier(4)
                outcomes = []

                def respawn():
                    barrier.wait()
                    outcomes.append(cluster._fleet.respawn("worker-0"))

                racers = [threading.Thread(target=respawn) for _ in range(4)]
                for thread in racers:
                    thread.start()
                for thread in racers:
                    thread.join(timeout=30.0)
                assert sorted(outcomes) == [False, False, False, True]
                stats = cluster.stats(include_workers=False)
                assert stats["restarts"]["worker-0"] == 1
                assert_counters_match_events(cluster)
        finally:
            sys.setswitchinterval(interval)
        assert not [child for child in multiprocessing.active_children()
                    if child.name == "repro-serving-worker-0"]

    def test_respawn_right_after_retirement_stays_on_the_ring(
            self, kill_worker):
        # a respawn that lands as soon as the worker is retired (here from
        # inside its death record) must not be undone by the reaper taking
        # the worker off the ring afterwards.
        with ClusterEngine(num_workers=2, respawn=False, hedging=False,
                           event_log_path=False) as cluster:
            record = cluster._fleet.record

            def respawn_on_death(kind, *args, **fields):
                record(kind, *args, **fields)
                if kind == "worker_death":
                    cluster._fleet.respawn(fields["worker"])

            cluster._fleet.record = respawn_on_death
            kill_worker(cluster, "worker-0")
            _wait_until(lambda: cluster.stats(include_workers=False)
                        ["restarts"]["worker-0"] == 1,
                        message="the death record never respawned")
            assert cluster._fleet.workers["worker-0"].process.is_alive()
            assert not cluster._fleet.workers["worker-0"].retired
            _wait_until(lambda: "worker-0" in cluster.workers_alive,
                        timeout=2.0,
                        message="the live incarnation is off the ring")


# ---------------------------------------------------------------------- #
# (f) graceful degradation + breaker at the front door
# ---------------------------------------------------------------------- #
class TestDegradation:
    def test_empty_ring_degrades_with_classical_parity(self, kill_worker):
        matrix, rhs = _spd_system(8, 4.0, 81)
        with ClusterEngine(num_workers=1, respawn=False) as cluster:
            kill_worker(cluster, "worker-0")
            _wait_until(lambda: len(cluster.workers_alive) == 0,
                        message="death never detected")
            record = cluster.solve(matrix, rhs)
            assert record.degraded is True
            assert record.block_encoding_calls == 0
            np.testing.assert_allclose(record.x, np.linalg.solve(matrix, rhs),
                                       rtol=0.0, atol=1e-10)
            assert record.scaled_residual < 1e-10
            assert cluster.stats(include_workers=False)["degraded"] >= 1

    def test_owner_lost_fallback_solves_once(self, monkeypatch, kill_worker):
        # a classical fallback still running when the reaper passes again
        # must not be started a second time: the entry it owns is no
        # orphan.  The wrapper makes each solve outlive several passes.
        calls = []
        solve_classically = frontend._degraded_record

        def slow_degraded_record(matrix, rhs):
            calls.append(time.monotonic())
            time.sleep(0.5)
            return solve_classically(matrix, rhs)

        monkeypatch.setattr(frontend, "_degraded_record",
                            slow_degraded_record)
        matrix, rhs = _spd_system(8, 4.0, 86)
        with ClusterEngine(num_workers=1, respawn=False, hedging=False,
                           event_log_path=False,
                           chaos=ChaosSpec(slow_rate=1.0,
                                           slow_seconds=5.0)) as cluster:
            future = cluster.submit(matrix, rhs)
            time.sleep(0.3)
            kill_worker(cluster, "worker-0")
            record = future.result(timeout=30.0)
            assert record.degraded
            time.sleep(0.3)  # further reaper passes find nothing to degrade
            assert len(calls) == 1
            events = cluster.observability.events.events(
                kind="degraded_fallback")
            assert len(events) == 1 and events[0]["reason"] == "owner_lost"
            stats = cluster.stats(include_workers=False)
            assert stats["submitted"] == stats["completed"] == 1
            assert stats["degraded"] == 1 and stats["inflight"] == 0

    def test_empty_ring_without_fallback_raises_typed_error(self, kill_worker):
        matrix, rhs = _spd_system(8, 4.0, 82)
        with ClusterEngine(num_workers=1, respawn=False,
                           degraded_fallback=False) as cluster:
            kill_worker(cluster, "worker-0")
            _wait_until(lambda: len(cluster.workers_alive) == 0,
                        message="death never detected")
            with pytest.raises(WorkerUnavailableError):
                cluster.submit(matrix, rhs)

    def test_open_breaker_degrades_and_counts_the_shed(self):
        matrix, rhs = _spd_system(8, 4.0, 83)
        with ClusterEngine(num_workers=1, respawn=False) as cluster:
            breaker = cluster._fleet.workers["worker-0"].breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            assert breaker.state == "open"
            record = cluster.solve(matrix, rhs)
            assert record.degraded is True
            shed = cluster.stats(
                include_workers=False)["admission"]["shed_breaker_open"]
            assert shed >= 1

    def test_open_breaker_without_fallback_raises_circuit_open(self):
        matrix, rhs = _spd_system(8, 4.0, 84)
        with ClusterEngine(num_workers=1, respawn=False,
                           degraded_fallback=False,
                           breaker_reset_timeout=30.0) as cluster:
            breaker = cluster._fleet.workers["worker-0"].breaker
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            with pytest.raises(CircuitOpenError) as excinfo:
                cluster.submit(matrix, rhs)
            assert excinfo.value.retriable is True
            assert 0.0 < excinfo.value.retry_after <= 30.0

    def test_retry_policy_rides_out_a_respawn_window(self, kill_worker):
        # one retry layer: ``execute`` wraps the blocking call, so both a
        # *synchronous* rejection (empty ring while the supervisor heals)
        # and an in-flight death (surfacing through the future) are retried
        # client-side.
        matrix, rhs = _spd_system(8, 4.0, 85)
        policy = RetryPolicy(max_attempts=8, base_delay=0.1, max_delay=0.5,
                             rng=0)
        with ClusterEngine(num_workers=1, supervisor_interval=0.05,
                           degraded_fallback=False) as cluster:
            first = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                  backend="ideal", kappa=4.0)
            assert first.scaled_residual < 1e-2
            kill_worker(cluster, "worker-0")
            # submit immediately: may land in the dying worker's queue (an
            # in-flight loss) or hit the worker-less window (a sync
            # rejection); either way the retries outlast the respawn.
            record = policy.execute(cluster.solve, matrix, rhs,
                                    epsilon_l=1e-2, backend="ideal",
                                    kappa=4.0)
            assert record.scaled_residual < 1e-2 and not record.degraded
            assert len(cluster.workers_alive) == 1


class TestResilientHTTP:
    def test_degraded_answer_and_enriched_healthz(self, kill_worker):
        matrix, rhs = _spd_system(8, 4.0, 91)
        with ClusterEngine(num_workers=1, respawn=False) as cluster:
            with ServingHTTPServer(cluster) as server:
                host, port = server.address
                base = f"http://{host}:{port}"
                kill_worker(cluster, "worker-0")
                _wait_until(lambda: len(cluster.workers_alive) == 0,
                            message="death never detected")
                request = urllib.request.Request(
                    f"{base}/solve",
                    data=json.dumps({"matrix": matrix.tolist(),
                                     "rhs": rhs.tolist()}).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as response:
                    assert response.status == 200
                    body = json.load(response)
                assert body["degraded"] is True
                np.testing.assert_allclose(
                    body["x"], np.linalg.solve(matrix, rhs),
                    rtol=0.0, atol=1e-10)
                with urllib.request.urlopen(f"{base}/healthz") as response:
                    health = json.load(response)
                assert health["ok"] is True
                assert health["workers_alive"] == 0
                assert health["worker_deaths"] == 1
                assert health["restarts"] == 0
                assert health["uptime_s"] > 0.0
                # the death and the degraded fallback are on the event log
                assert health["event_log"]["events"] >= 2
