"""Replicated ownership, hedged requests and zero-downtime drain (PR 10).

Covers the robustness layer end to end:

(a) ring replica walks — ``route_replicas`` distinctness, draining
    exclusion, empty/single-ring edge guards, exact placement restoration
    after undrain;
(b) hedge policy and replica selection — explicit vs derived deadlines,
    the minimum-sample guard, breaker/draining/retired filtering;
(c) failover correctness on a live cluster — a seeded mid-solve kill must
    produce the replica's bit-identical (1e-12) answer with
    ``degraded=False``, and a hedged duplicate must settle exactly once;
(d) zero-downtime operations — drain/undrain under traffic, rolling
    restart with zero crash-path deaths, supervisor planned recycling via
    ``max_requests_per_incarnation``, ``probe_timeout`` plumbing, the
    admission draining guard and the extended ``/healthz`` payload.
"""

from __future__ import annotations

import contextlib
import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import WorkerUnavailableError
from repro.linalg import random_matrix_with_condition_number, random_rhs
from repro.serving import (
    AdmissionController,
    ChaosSpec,
    ClusterEngine,
    HashRing,
    HedgePolicy,
)
from repro.utils import matrix_fingerprint
from test_serving_lifecycle_model import _model_engine


# ---------------------------------------------------------------------- #
# helpers (mirrors test_serving_resilience.py)
# ---------------------------------------------------------------------- #
def _spd_system(n, kappa, seed):
    matrix = random_matrix_with_condition_number(n, kappa, rng=seed)
    return matrix, random_rhs(n, rng=seed + 1000)


def _wait_until(predicate, timeout: float = 15.0, message: str = "timeout"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(message)


def _replica_order(matrix, num_workers: int = 2) -> list[str]:
    """Predict the replica walk a fresh cluster's ring will produce."""
    ring = HashRing([f"worker-{i}" for i in range(num_workers)])
    return ring.route_replicas(matrix_fingerprint(matrix), num_workers)


def _arc_shares(cluster) -> dict:
    """The key-space split over the cluster's current ring members."""
    return cluster.stats(include_workers=False)["ring"]["arc_shares"]


# ---------------------------------------------------------------------- #
# (a) ring replica walks and draining
# ---------------------------------------------------------------------- #
class TestRouteReplicas:
    def test_replicas_are_distinct_and_lead_with_the_owner(self):
        ring = HashRing([f"w{i}" for i in range(5)])
        for key in ("alpha", "beta", "gamma", "delta"):
            replicas = ring.route_replicas(key, 3)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert replicas[0] == ring.route(key)

    def test_n_larger_than_ring_returns_every_worker_once(self):
        ring = HashRing(["a", "b", "c"])
        assert sorted(ring.route_replicas("key", 10)) == ["a", "b", "c"]

    def test_n_below_one_is_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError, match="replica count"):
            ring.route_replicas("key", 0)

    def test_empty_ring_raises_retriable_unavailable(self):
        ring = HashRing([])
        with pytest.raises(WorkerUnavailableError):
            ring.route_replicas("key", 1)
        with pytest.raises(WorkerUnavailableError):
            ring.route("key")

    def test_single_worker_ring_serves_every_replica_request(self):
        ring = HashRing(["solo"])
        assert ring.route_replicas("key", 1) == ["solo"]
        assert ring.route_replicas("key", 4) == ["solo"]
        assert ring.arc_shares() == {"solo": 1.0}

    def test_draining_worker_is_skipped_but_keeps_its_arcs(self):
        ring = HashRing(["a", "b", "c"])
        keys = ("k1", "k2", "k3", "k4", "k5")
        before = {key: ring.route_replicas(key, 2) for key in keys}
        victim = before["k1"][0]
        eligible = {"a", "b", "c"} - {victim}
        for key in keys:
            assert victim not in ring.route_replicas(key, 2, eligible)
        # a draining member keeps its arcs: the split over the members is
        # unchanged, and the stats report it draining.
        assert ring.arc_shares({"a", "b", "c"}) == ring.arc_shares()
        assert ring.stats({"a", "b", "c"}, {victim})["draining"] == [victim]
        # undrain restores the exact pre-drain placement: the arcs never
        # moved, the walk just stopped skipping them.
        assert {key: ring.route_replicas(key, 2) for key in keys} == before

    def test_fully_draining_ring_raises_unavailable(self):
        ring = HashRing(["a", "b"])
        with pytest.raises(WorkerUnavailableError, match="draining"):
            ring.route_replicas("key", 1, eligible=set())

    def test_ids_off_the_ring_are_never_eligible(self):
        ring = HashRing(["a"])
        with pytest.raises(WorkerUnavailableError):
            ring.route_replicas("key", 1, eligible={"ghost"})
        assert ring.route_replicas("key", 2, eligible={"a", "ghost"}) == ["a"]
        assert ring.arc_shares({"a", "ghost"}) == {"a": 1.0}
        assert ring.stats(set())["workers"] == []

    def test_replica_sets_move_minimally_on_worker_loss(self):
        ring = HashRing(["a", "b", "c", "d"])
        keys = [f"key-{i}" for i in range(64)]
        before = {key: ring.route_replicas(key, 2) for key in keys}
        for key in keys:
            after = ring.route_replicas(key, 2, eligible={"a", "b", "c"})
            assert "d" not in after
            # only keys that had d in their replica set may re-walk
            if "d" not in before[key]:
                assert after == before[key]


# ---------------------------------------------------------------------- #
# (b) hedge policy and replica selection
# ---------------------------------------------------------------------- #
class TestHedgePolicy:
    def test_explicit_deadline_wins_without_samples(self):
        policy = HedgePolicy(hedge_after=0.25)
        assert policy.deadline({"count": 0, "p99": 0.0}) == 0.25
        assert policy.deadline(None) == 0.25

    def test_derived_deadline_needs_a_latency_population(self):
        policy = HedgePolicy(min_samples=64)
        assert policy.deadline({"count": 63, "p99": 0.5}) is None
        assert policy.deadline({"count": 64, "p99": 0.5}) == \
            pytest.approx(1.5)                       # 3.0 * p99

    def test_derived_deadline_is_floored(self):
        policy = HedgePolicy(min_samples=1, min_hedge=0.02)
        assert policy.deadline({"count": 10, "p99": 0.001}) == 0.02
        assert policy.deadline({"count": 10, "p99": 0.0}) is None

    def test_invalid_parameters_are_rejected(self):
        with pytest.raises(ValueError, match="hedge_after"):
            HedgePolicy(hedge_after=0.0)
        with pytest.raises(ValueError, match="p99_multiplier"):
            HedgePolicy(p99_multiplier=0.0)


@contextlib.contextmanager
def _in_memory_fleet(**options):
    """The real :class:`~repro.serving.fleet.Fleet` of three workers over
    in-memory queues and processes (no fork)."""
    engine = _model_engine(num_workers=3, **options)
    try:
        yield engine._fleet
    finally:
        engine.close(timeout=0.0)


class TestSelectReplica:
    def test_first_eligible_candidate_wins(self):
        ids = ["worker-0", "worker-1", "worker-2"]
        with _in_memory_fleet() as fleet:
            assert fleet.select(ids) == ("worker-0", False)
            assert fleet.select(ids, exclude=("worker-0",)) == \
                ("worker-1", False)
            assert fleet.select(ids[:2], exclude=ids[:2]) == (None, False)
            assert fleet.select([]) == (None, False)

    def test_open_breaker_diverts_to_the_next_replica(self):
        with _in_memory_fleet(breaker_failure_threshold=1,
                              breaker_reset_timeout=60.0) as fleet:
            fleet.workers["worker-0"].breaker.record_failure()
            assert fleet.select(["worker-0", "worker-1"]) == \
                ("worker-1", False)
            # a closed breaker keeps the primary
            assert fleet.select(["worker-1", "worker-0"]) == \
                ("worker-1", False)

    def test_half_open_probe_slot_is_claimed_lazily(self):
        with _in_memory_fleet(breaker_failure_threshold=1,
                              breaker_reset_timeout=0.01) as fleet:
            breaker = fleet.workers["worker-0"].breaker
            breaker.record_failure()
            time.sleep(0.02)                         # half-open now
            assert fleet.select(["worker-0", "worker-1"]) == \
                ("worker-0", True)
            # the probe slot is spent: the next selection fails over
            assert fleet.select(["worker-0", "worker-1"]) == \
                ("worker-1", False)


# ---------------------------------------------------------------------- #
# admission draining guard
# ---------------------------------------------------------------------- #
class TestAdmissionDraining:
    def test_draining_worker_sheds_retriably(self):
        gate = AdmissionController(queue_limit=4)
        gate.admit("w", 0)
        with pytest.raises(WorkerUnavailableError, match="draining"):
            gate.admit("w", 0, draining=True)
        stats = gate.stats()
        assert stats["admitted"] == 1
        assert stats["shed_draining"] == 1
        assert stats["shed_total"] == 1


# ---------------------------------------------------------------------- #
# (c) failover correctness on a live cluster
# ---------------------------------------------------------------------- #
class TestFailoverCorrectness:
    def test_replica_failover_is_bit_identical_and_not_degraded(
            self, tmp_path, assert_counters_match_events):
        matrix, rhs = _spd_system(8, 4.0, 211)
        primary, replica = _replica_order(matrix)[:2]
        # incarnation 0, request 1: the primary dies mid-solve on the
        # *second* request it handles — after it has answered (and warmed
        # its replica through the shared store) once.
        chaos = ChaosSpec(crash_points=((0, 1),), workers=(primary,))
        with ClusterEngine(num_workers=2, replication_factor=2,
                           supervisor_interval=0.05, chaos=chaos,
                           hedging=False,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) \
                as cluster:
            reference = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                      backend="ideal", kappa=4.0)
            assert not reference.degraded
            _wait_until(lambda: cluster.worker_stats()[replica]
                        .get("warmed", 0) >= 1,
                        message="replica never warmed the synthesis")
            # request index 1 hits the crash point; the orphan is
            # redispatched straight to the warm replica.
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert not record.degraded
            np.testing.assert_allclose(record.x, reference.x,
                                       rtol=0.0, atol=1e-12)
            stats = cluster.stats(include_workers=False)
            assert stats["degraded"] == 0
            assert stats["failovers"] >= 1
            events = cluster.observability.events.events(kind="failover")
            assert events and events[-1]["worker_to"] == replica
            assert events[-1]["reason"] == "replica_redispatch"
            _wait_until(lambda: len(cluster.workers_alive) == 2,
                        message="the dead primary was never respawned")
            counts = assert_counters_match_events(cluster)
            assert counts["worker_death"] == counts["worker_respawn"] == 1

    def test_hedged_duplicate_settles_exactly_once(
            self, tmp_path, assert_counters_match_events):
        matrix, rhs = _spd_system(8, 4.0, 223)
        primary, replica = _replica_order(matrix)[:2]
        # the primary stalls on every request for longer than the hedge
        # deadline: the hedge always fires and always wins.
        slow = ChaosSpec(slow_rate=1.0, slow_seconds=1.5, workers=(primary,))
        with ClusterEngine(num_workers=2, replication_factor=2,
                           supervisor_interval=0.2, chaos=slow,
                           hedge_after=0.1,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) \
                as cluster:
            assert cluster.hedge_deadline() == 0.1
            submitted_at = time.time()
            future = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                    backend="ideal", kappa=4.0)
            record = future.result(timeout=30.0)
            assert not record.degraded
            assert record.scaled_residual < 1e-2
            assert future.worker_id == replica       # the hedge won
            stats = cluster.stats(include_workers=False)
            assert stats["hedged"] == 1
            assert stats["hedge_wins"] == 1
            events = cluster.observability.events
            hedges = events.events(kind="hedge_dispatch")
            # never early: the copy goes out at the deadline, not before
            # (the event log stamps wall-clock time).
            assert hedges and hedges[0]["ts"] - submitted_at >= 0.1
            wins = events.events(kind="hedge_win")
            assert wins and wins[-1]["worker_hedge"] == replica
            # exactly-once settlement: the loser's late answer (due at
            # ~1.5 s) must not resurrect the entry, double-count the
            # completion or corrupt the depth accounting.
            time.sleep(2.0)                          # let the loser answer
            stats = cluster.stats(include_workers=False)
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            assert stats["inflight"] == 0
            assert all(depth == 0
                       for depth in stats["queue_depths"].values())
            counts = assert_counters_match_events(cluster)
            assert counts["hedge_dispatch"] == counts["hedge_win"] == 1

    def test_hedge_storm_with_a_kill_settles_every_request_once(
            self, assert_counters_match_events, kill_worker):
        # a 1 ms hedge deadline doubles nearly every request while four
        # client threads submit and one worker is killed mid-traffic; a
        # short switch interval widens every race between submit, hedge,
        # redispatch, reap and settle.  Each request must settle exactly
        # once and leave no copy behind.
        systems = [_spd_system(8, 4.0, seed) for seed in range(231, 239)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ClusterEngine(num_workers=2, replication_factor=2,
                               hedge_after=0.001, supervisor_interval=0.05,
                               event_log_path=False) as cluster:
                futures = []

                def client(offset):
                    for index in range(12):
                        matrix, rhs = systems[(offset + index) % len(systems)]
                        futures.append(cluster.submit(
                            matrix, rhs, epsilon_l=1e-2, backend="ideal",
                            kappa=4.0))

                clients = [threading.Thread(target=client, args=(offset,))
                           for offset in range(4)]
                for thread in clients:
                    thread.start()
                time.sleep(0.2)
                kill_worker(cluster, "worker-0")
                for thread in clients:
                    thread.join(timeout=30.0)
                    assert not thread.is_alive()
                records = [future.result(timeout=30.0) for future in futures]
                assert all(record.scaled_residual < 1e-2
                           for record in records)
                _wait_until(lambda: len(cluster.workers_alive) == 2,
                            message="the killed worker was never respawned")
                stats = cluster.stats(include_workers=False)
                assert stats["submitted"] == stats["completed"] == 48
                assert stats["inflight"] == 0
                assert all(depth == 0
                           for depth in stats["queue_depths"].values())
                assert stats["hedged"] >= 1
                assert stats["hedge_wins"] <= stats["hedged"]
                assert_counters_match_events(cluster)
        finally:
            sys.setswitchinterval(interval)


# ---------------------------------------------------------------------- #
# (d) zero-downtime operations
# ---------------------------------------------------------------------- #
class TestZeroDowntimeOps:
    def test_drain_hands_traffic_to_replicas_and_undrain_restores(self):
        systems = [_spd_system(8, 4.0, seed) for seed in (301, 303, 305)]
        with ClusterEngine(num_workers=3, supervisor_interval=0.2,
                           hedging=False) as cluster:
            victim = cluster.route(systems[0][0])
            baseline = _arc_shares(cluster)
            assert cluster.drain(victim, timeout=10.0) is True
            assert cluster.healthz()["draining"][victim] is True
            for matrix, rhs in systems:
                future = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                        backend="ideal", kappa=4.0)
                record = future.result(timeout=30.0)
                assert not record.degraded
                assert future.worker_id != victim
            assert cluster.undrain(victim) is True
            assert _arc_shares(cluster) == baseline
            assert cluster.route(systems[0][0]) == victim
            events = cluster.observability.events
            assert events.events(kind="worker_drain")
            assert events.events(kind="worker_drain_complete")
            assert events.events(kind="worker_undrain")

    def test_drain_of_a_worker_that_dies_returns_promptly(self, kill_worker):
        # the handshake waits on a worker wedged in a hang; once it is
        # killed the reaper fails the drain's round-trip, so drain answers
        # False within a reaper pass or two, not at its 30 s timeout, and
        # leaves nothing in flight.
        matrix, rhs = _spd_system(8, 4.0, 307)
        with ClusterEngine(num_workers=1, respawn=False, hedging=False,
                           degraded_fallback=False, event_log_path=False,
                           chaos=ChaosSpec(hang_rate=1.0,
                                           hang_seconds=60.0)) as cluster:
            future = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                    backend="ideal", kappa=4.0)
            outcome = {}

            def drain():
                outcome["drained"] = cluster.drain("worker-0", timeout=30.0)
                outcome["at"] = time.monotonic()

            thread = threading.Thread(target=drain, daemon=True)
            thread.start()
            time.sleep(0.3)
            killed_at = time.monotonic()
            kill_worker(cluster, "worker-0")
            thread.join(timeout=10.0)
            assert outcome.get("drained") is False
            assert outcome["at"] - killed_at < 5.0
            with pytest.raises(WorkerUnavailableError):
                future.result(timeout=10.0)
            assert cluster.stats(include_workers=False)["inflight"] == 0

    def test_rolling_restart_serves_throughout_with_zero_deaths(
            self, tmp_path):
        matrix, rhs = _spd_system(8, 4.0, 311)
        with ClusterEngine(num_workers=2, replication_factor=2,
                           supervisor_interval=0.1, hedging=False,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) \
                as cluster:
            reference = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                      backend="ideal", kappa=4.0)
            results = cluster.rolling_restart(timeout=20.0)
            assert results == {"worker-0": True, "worker-1": True}
            stats = cluster.stats(include_workers=False)
            assert stats["worker_deaths"] == 0       # planned, not crashes
            assert all(count == 1 for count in stats["restarts"].values())
            assert stats["ring"]["draining"] == []
            assert cluster.healthz()["draining"] == {"worker-0": False,
                                                     "worker-1": False}
            recycles = cluster.observability.events.events(
                kind="worker_recycle")
            assert len(recycles) == 2
            assert all(event["respawned"] for event in recycles)
            # the respawned incarnations warm-restored from the store:
            # the answer is the same bits, not just the same tolerance.
            healed = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert not healed.degraded
            np.testing.assert_allclose(healed.x, reference.x,
                                       rtol=0.0, atol=1e-12)

    def test_supervisor_recycles_after_max_requests_per_incarnation(
            self, tmp_path):
        matrix, rhs = _spd_system(8, 4.0, 313)
        with ClusterEngine(num_workers=2, replication_factor=2,
                           supervisor_interval=0.05, hedging=False,
                           max_requests_per_incarnation=3,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) \
                as cluster:
            owner = cluster.route(matrix)
            for _ in range(3):
                record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                       backend="ideal", kappa=4.0)
                assert not record.degraded
            _wait_until(lambda: cluster.stats(include_workers=False)
                        ["restarts"].get(owner, 0) >= 1,
                        message="planned recycle never happened")
            stats = cluster.stats(include_workers=False)
            assert stats["worker_deaths"] == 0       # a recycle, not a crash
            assert stats["supervisor"]["recycles"] >= 1
            # the new incarnation starts with a fresh dispatch budget
            _wait_until(lambda: cluster.stats(include_workers=False)
                        ["incarnation_dispatched"][owner] == 0,
                        message="dispatch counter never reset")
            healed = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert not healed.degraded

    def test_probe_timeout_is_plumbed_to_the_supervisor(self):
        with ClusterEngine(num_workers=1, supervisor_interval=5.0,
                           hedging=False,
                           probe_timeout=0.123) as cluster:
            assert cluster.probe_timeout == 0.123
            stats = cluster.stats(include_workers=False)
            assert stats["supervisor"]["probe_timeout"] == 0.123

    def test_healthz_reports_the_replication_surface(self):
        with ClusterEngine(num_workers=2, replication_factor=2,
                           supervisor_interval=5.0,
                           hedge_after=0.5) as cluster:
            payload = cluster.healthz()
            assert payload["replication_factor"] == 2
            assert payload["draining"] == {"worker-0": False,
                                           "worker-1": False}
            assert payload["hedge_deadline_s"] == 0.5
            assert payload["hedged"] == 0
            assert payload["hedge_wins"] == 0
            assert payload["failovers"] == 0
            # derived mode on a cold cluster never hedges (sample guard)
        with ClusterEngine(num_workers=2, replication_factor=2,
                           supervisor_interval=5.0) as cold:
            assert cold.healthz()["hedge_deadline_s"] is None
