"""Serving-tier tests: routing, admission, deadlines, tiered store, cluster.

The tier's contract mirrors the single-process serving layer's — shortcuts
may change costs, never answers — plus the distribution-specific clauses:

(a) routing is deterministic across ring instances and interpreter runs,
    and removing a worker moves only the keys that worker owned;
(b) admission control sheds with explicit retriable errors (queue watermark,
    tenant quota with an exact ``retry_after``) and never silently drops;
(c) per-request deadlines surface as :class:`SolveTimeoutError` before any
    solve work is spent on the expired request;
(d) the tiered store hierarchy promotes shared-directory hits into the
    node-local level and degrades to read-only (not a crash) on
    ``PermissionError``;
(e) a 2-worker cluster returns bit-identical answers to a single-process
    solver, survives a worker death with only retriable failures, and the
    HTTP surface maps every outcome to the documented status codes.
"""

from __future__ import annotations

import gc
import json
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import QSVTLinearSolver
from repro.engine import CompiledSolverCache, SynthesisStore, TieredSynthesisStore
from repro.engine import store as store_module
from repro.exceptions import (
    QueueFullError,
    QuotaExceededError,
    SolveTimeoutError,
    WorkerUnavailableError,
)
from repro.linalg import random_matrix_with_condition_number, random_rhs
from repro.serving import (
    AdmissionController,
    ChaosSpec,
    ClusterEngine,
    HashRing,
    ServingHTTPServer,
    TokenBucket,
)
from repro.serving.worker import GroupSweeper, SolveGroup
from repro.utils import LatencyHistogram, matrix_fingerprint


def _fingerprints(count: int) -> list[str]:
    return [f"fingerprint-{index:04d}" for index in range(count)]


# ---------------------------------------------------------------------- #
# (a) consistent-hash routing
# ---------------------------------------------------------------------- #
class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        workers = ["worker-0", "worker-1", "worker-2"]
        first = HashRing(workers)
        second = HashRing(list(reversed(workers)))  # insertion order irrelevant
        for fingerprint in _fingerprints(200):
            assert first.route(fingerprint) == second.route(fingerprint)

    def test_same_fingerprint_always_same_worker(self):
        ring = HashRing(["worker-0", "worker-1"])
        owners = {ring.route("abc") for _ in range(50)}
        assert len(owners) == 1

    def test_removal_moves_only_the_dead_workers_keys(self):
        ring = HashRing([f"worker-{i}" for i in range(4)])
        keys = _fingerprints(1000)
        before = {key: ring.route(key) for key in keys}
        victim = "worker-2"
        assert ring.remove_worker(victim)
        after = {key: ring.route(key) for key in keys}
        moved = {key for key in keys if before[key] != after[key]}
        # every moved key belonged to the victim; nobody else's keys moved
        assert moved == {key for key in keys if before[key] == victim}
        # and the victim owned roughly 1/4 of the space, not (W-1)/W
        assert len(moved) < len(keys) / 2

    def test_arc_shares_sum_to_one_and_are_balanced(self):
        ring = HashRing([f"worker-{i}" for i in range(4)], vnodes=128)
        shares = ring.arc_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert max(shares.values()) < 2.5 * min(shares.values())

    def test_empty_ring_rejects_with_worker_unavailable(self):
        ring = HashRing()
        with pytest.raises(WorkerUnavailableError):
            ring.route("anything")

    def test_membership_bookkeeping(self):
        ring = HashRing(["worker-0"])
        with pytest.raises(ValueError):
            ring.add_worker("worker-0")
        assert not ring.remove_worker("never-added")
        assert "worker-0" in ring and len(ring) == 1
        assert ring.stats()["points"] == ring.vnodes


# ---------------------------------------------------------------------- #
# (b) admission control
# ---------------------------------------------------------------------- #
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()           # burst exhausted
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.5)                        # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_refill_caps_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=3.0, clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(3.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=-1.0)


class TestAdmissionController:
    def test_queue_watermark_sheds_with_queue_full(self):
        controller = AdmissionController(queue_limit=2)
        controller.admit("worker-0", 0)
        controller.admit("worker-0", 1)
        with pytest.raises(QueueFullError) as excinfo:
            controller.admit("worker-0", 2)
        assert excinfo.value.retriable
        stats = controller.stats()
        assert stats["admitted"] == 2 and stats["shed_queue_full"] == 1

    def test_tenant_quota_sheds_with_retry_after(self):
        clock = FakeClock()
        controller = AdmissionController(queue_limit=None, tenant_rate=1.0,
                                         tenant_burst=1.0, clock=clock)
        controller.admit("worker-0", 0, tenant="acme")
        with pytest.raises(QuotaExceededError) as excinfo:
            controller.admit("worker-0", 0, tenant="acme")
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        controller.admit("worker-0", 0, tenant="acme")  # budget refilled
        # tenants are isolated: a fresh tenant still has its full burst
        controller.admit("worker-0", 0, tenant="other")
        assert controller.stats()["tenants"] == 2

    def test_anonymous_traffic_bypasses_quota_not_watermark(self):
        controller = AdmissionController(queue_limit=1, tenant_rate=1.0,
                                         tenant_burst=1.0, clock=FakeClock())
        for _ in range(5):
            controller.admit("worker-0", 0)        # no tenant -> no quota
        with pytest.raises(QueueFullError):
            controller.admit("worker-0", 1)


# ---------------------------------------------------------------------- #
# (c) deadlines and the shared latency histogram
# ---------------------------------------------------------------------- #
class TestLatencyHistogram:
    def test_empty_summary_is_zeroes(self):
        summary = LatencyHistogram().summary()
        assert summary["count"] == 0 and summary["p99"] == 0.0

    def test_percentiles_and_lifetime_counters(self):
        histogram = LatencyHistogram(window=100)
        for value in range(1, 101):
            histogram.record(value / 1000.0)
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(0.0505, abs=1e-3)
        assert summary["p50"] <= summary["p90"] <= summary["p99"]
        assert summary["max"] == pytest.approx(0.1)

    def test_window_bounds_memory_but_not_lifetime_stats(self):
        histogram = LatencyHistogram(window=4)
        for value in (1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 0.5):
            histogram.record(value)
        summary = histogram.summary()
        assert summary["count"] == 8          # lifetime
        assert summary["p99"] == pytest.approx(0.5)  # window sees only tail
        assert summary["max"] == pytest.approx(1.0)  # lifetime


class TestEngineDeadlines:
    """Deadlines are checked when a worker's group sweep starts
    (:meth:`GroupSweeper.sweep`) and validated when ``submit`` is called."""

    @staticmethod
    def _group(rhs_list, *, expired=()) -> SolveGroup:
        matrix = random_matrix_with_condition_number(4, 3.0, rng=0)
        group = SolveGroup(matrix, 1e-2, "ideal", 3.0, None, {})
        past = time.monotonic()
        for index, rhs in enumerate(rhs_list):
            group.add(rhs, index,
                      deadline_at=past if index in expired else None)
        return group

    def test_expired_deadline_raises_before_solving(self):
        rhs = random_rhs(4, rng=1)
        sweeper = GroupSweeper(CompiledSolverCache())
        results = sweeper.sweep(self._group([rhs] * 3, expired=(0, 1, 2)))
        assert all(isinstance(result, SolveTimeoutError) for result in results)
        assert all(result.late_by >= 0.0 for result in results)
        stats = sweeper.stats()
        assert stats["timeouts"] == 3
        assert stats["batches"] == 0          # no sweep ran for them
        assert stats["cache"]["compiles"] == 0

    def test_expired_member_does_not_fail_its_groupmates(self):
        rhs = random_rhs(4, rng=1)
        sweeper = GroupSweeper(CompiledSolverCache())
        doomed, alive = sweeper.sweep(self._group([rhs, 2 * rhs],
                                                  expired=(0,)))
        assert isinstance(doomed, SolveTimeoutError)
        assert alive.scaled_residual < 1e-2
        stats = sweeper.stats()
        assert stats["timeouts"] == 1 and stats["batches"] == 1

    def test_negative_deadline_is_rejected(self):
        with ClusterEngine(num_workers=1, event_log_path=False) as cluster:
            for deadline in (-1.0, float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    cluster.submit(np.eye(4), np.ones(4), deadline=deadline)
            assert cluster.stats(include_workers=False)["submitted"] == 0

    def test_stats_expose_latency_percentiles(self):
        # the histogram counts each answered member, not the expired one
        rhs = random_rhs(4, rng=1)
        sweeper = GroupSweeper(CompiledSolverCache())
        sweeper.sweep(self._group([rhs] * 4, expired=(3,)))
        latency = sweeper.stats()["latency"]
        assert latency["count"] == 3
        assert 0.0 < latency["p50"] <= latency["p99"]


# ---------------------------------------------------------------------- #
# (d) tiered store hierarchy
# ---------------------------------------------------------------------- #
class TestTieredStore:
    def _populate(self, directory, matrix):
        store = SynthesisStore(directory)
        CompiledSolverCache(store=store).solver(matrix, epsilon_l=5e-2,
                                                backend="ideal")
        return store

    def test_shared_hit_is_promoted_into_local(self, tmp_path):
        matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
        self._populate(tmp_path / "shared", matrix)
        tiered = TieredSynthesisStore(tmp_path / "local", tmp_path / "shared")

        cache = CompiledSolverCache(store=tiered)
        cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
        stats = tiered.stats()
        assert stats["shared_hits"] == 1 and stats["promotions"] == 1
        assert len(SynthesisStore(tmp_path / "local")) == 1

        # a fresh hierarchy over the same directories now hits locally
        rewarmed = TieredSynthesisStore(tmp_path / "local", tmp_path / "shared")
        CompiledSolverCache(store=rewarmed).solver(matrix, epsilon_l=5e-2,
                                                   backend="ideal")
        assert rewarmed.stats()["local_hits"] == 1
        assert rewarmed.stats()["shared_hits"] == 0

    def test_denied_shared_read_is_a_miss_not_a_crash(self, tmp_path,
                                                      monkeypatch):
        matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
        shared = self._populate(tmp_path / "shared", matrix)
        tiered = TieredSynthesisStore(tmp_path / "local", shared)

        def deny(cache_key, **backend_options):
            raise PermissionError("shared store is unreadable")

        # tests run as root, so an actual chmod would not deny anything —
        # inject the PermissionError at the shared level instead.
        monkeypatch.setattr(shared, "load", deny)
        cache = CompiledSolverCache(store=tiered)
        solver = cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
        assert solver is not None
        assert cache.stats()["compiles"] == 1      # fell back to compiling
        assert tiered.stats()["shared_denied"] == 1

    def test_readonly_shared_save_latches_instead_of_crashing(self, tmp_path,
                                                              monkeypatch):
        matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
        rhs = random_rhs(8, rng=1)
        shared = SynthesisStore(tmp_path / "shared")

        calls = {"count": 0}

        def deny(path, data):
            calls["count"] += 1
            raise PermissionError("read-only mount")

        monkeypatch.setattr(store_module, "atomic_write", deny)
        solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="ideal")
        solver.solve(rhs)
        key = (matrix_fingerprint(matrix), 5e-2, "ideal", None, ())
        assert shared.save(key, solver) is False
        assert shared.stats()["readonly"] is True
        # the latch skips the doomed serialisation on every later save
        assert shared.save(key, solver) is False
        assert calls["count"] == 1

    def test_tiered_save_survives_readonly_shared_level(self, tmp_path):
        matrix = random_matrix_with_condition_number(8, 4.0, rng=42)
        shared = SynthesisStore(tmp_path / "shared")
        shared._readonly = True                    # as if latched earlier
        tiered = TieredSynthesisStore(tmp_path / "local", shared)
        cache = CompiledSolverCache(store=tiered)
        cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
        assert len(SynthesisStore(tmp_path / "local")) == 1   # local write ok
        assert len(shared) == 0                                # shared skipped


# ---------------------------------------------------------------------- #
# (e) end-to-end cluster + HTTP surface
# ---------------------------------------------------------------------- #
def _spd_system(n, kappa, seed):
    matrix = random_matrix_with_condition_number(n, kappa, rng=seed)
    return matrix, random_rhs(n, rng=seed + 1000)


class TestClusterEngine:
    def test_cluster_matches_single_process_to_1e_12(self, tmp_path):
        systems = [_spd_system(8, 4.0, seed) for seed in range(3)]
        with ClusterEngine(num_workers=2,
                           local_store_dir=str(tmp_path / "local"),
                           shared_store_dir=str(tmp_path / "shared")) as cluster:
            for matrix, rhs in systems:
                record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                       backend="ideal", kappa=4.0)
                reference = QSVTLinearSolver(matrix, epsilon_l=1e-2,
                                             backend="ideal",
                                             kappa=4.0).solve(rhs)
                np.testing.assert_allclose(record.x, reference.x,
                                           rtol=0.0, atol=1e-12)
                assert record.scaled_residual == pytest.approx(
                    reference.scaled_residual, abs=1e-12)
            stats = cluster.stats(include_workers=False)
            assert stats["submitted"] == 3 and stats["completed"] == 3
            assert stats["latency"]["count"] == 3

    def test_same_matrix_routes_to_one_sticky_worker(self):
        matrix, rhs = _spd_system(8, 4.0, 7)
        with ClusterEngine(num_workers=2) as cluster:
            owner = cluster.route(matrix)
            futures = [cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                      backend="ideal", kappa=4.0)
                       for _ in range(6)]
            assert {future.worker_id for future in futures} == {owner}
            for future in futures:
                assert future.result().scaled_residual < 1e-2
            per_worker = cluster.worker_stats()
            assert per_worker[owner]["served"] == 6
            # coalescing happened: fewer sweeps than requests on the owner
            assert per_worker[owner]["batches"] < 6

    def test_queue_watermark_sheds_queue_full(self):
        matrix, rhs = _spd_system(8, 4.0, 11)
        with ClusterEngine(num_workers=1, queue_limit=1) as cluster:
            admitted = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                      backend="ideal", kappa=4.0)
            with pytest.raises(QueueFullError):
                cluster.submit(matrix, rhs, epsilon_l=1e-2,
                               backend="ideal", kappa=4.0)
            assert admitted.result().scaled_residual < 1e-2
            assert cluster.stats(
                include_workers=False)["admission"]["shed_queue_full"] == 1

    def test_tenant_quota_rejects_with_retry_after(self):
        matrix, rhs = _spd_system(8, 4.0, 13)
        with ClusterEngine(num_workers=1, tenant_rate=0.001,
                           tenant_burst=1.0) as cluster:
            first = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                  backend="ideal", kappa=4.0, tenant="acme")
            assert first.scaled_residual < 1e-2
            with pytest.raises(QuotaExceededError) as excinfo:
                cluster.submit(matrix, rhs, epsilon_l=1e-2,
                               backend="ideal", kappa=4.0, tenant="acme")
            assert excinfo.value.retry_after > 0.0
            # anonymous traffic is untouched by the tenant's exhaustion
            assert cluster.solve(matrix, rhs, epsilon_l=1e-2, backend="ideal",
                                 kappa=4.0).scaled_residual < 1e-2

    def test_worker_death_is_contained_and_retriable(self, kill_worker):
        # respawn=False pins PR 6's shrink-only contract; the self-healing
        # behaviour (fleet returns to full strength) lives in
        # test_serving_resilience.py.
        matrix, rhs = _spd_system(8, 4.0, 17)
        with ClusterEngine(num_workers=2, respawn=False,
                           degraded_fallback=False) as cluster:
            victim = cluster.route(matrix)
            kill_worker(cluster, victim)
            # requests racing the death either complete or fail retriably —
            # never hang, never raise anything but WorkerUnavailableError.
            future = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                    backend="ideal", kappa=4.0)
            try:
                record = future.result(timeout=30.0)
                assert record.scaled_residual < 1e-2
            except WorkerUnavailableError:
                pass
            deadline = time.monotonic() + 10.0
            while victim in cluster.workers_alive:
                assert time.monotonic() < deadline, "death never detected"
                time.sleep(0.05)
            stats = cluster.stats(include_workers=False)
            assert stats["worker_deaths"] == 1
            assert stats["workers_alive"] == 1
            # the fingerprint re-homed onto the survivor and solves fine
            assert cluster.route(matrix) != victim
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2

    def test_put_on_a_closed_owner_queue_moves_the_request(self):
        # the state a respawn leaves behind for a submit that read the old
        # incarnation's queue: the put fails.  The request must move to the
        # replica like any lost owner's, not escape as a raw ValueError nor
        # count as a completed solve without an answer.
        matrix, rhs = _spd_system(8, 4.0, 29)
        with ClusterEngine(num_workers=2, respawn=False, hedging=False,
                           trace_sample_rate=1.0,
                           event_log_path=False) as cluster:
            owner = cluster.route(matrix)
            reference = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                      backend="ideal", kappa=4.0)
            assert cluster.stats(include_workers=False)["completed"] == 1
            cluster._fleet.workers[owner].requests.close()
            future = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                    backend="ideal", kappa=4.0)
            record = future.result(timeout=30.0)
            assert not record.degraded
            assert future.worker_id != owner
            np.testing.assert_allclose(record.x, reference.x,
                                       rtol=0.0, atol=1e-12)
            stats = cluster.stats(include_workers=False)
            assert stats["submitted"] == 2 and stats["completed"] == 2
            assert stats["redispatched"] == 1
            assert stats["inflight"] == 0
            trace = cluster.trace(future.trace_id)
            assert trace["status"] == "ok"
            assert "redispatch" in [span["name"] for span in trace["spans"]]
            # the owner's queue is gone, so it cannot be told to stop.
            cluster.close(timeout=0.5)

    def test_deadline_crosses_the_process_boundary(self):
        matrix, rhs = _spd_system(8, 4.0, 19)
        with ClusterEngine(num_workers=1) as cluster:
            with pytest.raises(SolveTimeoutError):
                cluster.solve(matrix, rhs, epsilon_l=1e-2, backend="ideal",
                              kappa=4.0, deadline=0.0)
            # the engine is unharmed: the next request succeeds
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2

    def test_matrix_memo_evicts_when_the_array_dies(self):
        # the fingerprint memo must hold the matrix weakly: once the caller's
        # array is garbage-collected its entry is gone, so a recycled id()
        # can never resurrect a stale fingerprint (wrong-matrix answers).
        with ClusterEngine(num_workers=1) as cluster:
            matrix, rhs = _spd_system(8, 4.0, 37)
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2
            assert len(cluster._matrix_memo) == 1
            del matrix
            gc.collect()
            assert len(cluster._matrix_memo) == 0
            # and a different matrix (possibly reusing the id) solves right
            other, other_rhs = _spd_system(8, 4.0, 38)
            reference = QSVTLinearSolver(other, epsilon_l=1e-2,
                                         backend="ideal",
                                         kappa=4.0).solve(other_rhs)
            record = cluster.solve(other, other_rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            np.testing.assert_allclose(record.x, reference.x,
                                       rtol=0.0, atol=1e-12)

    def test_concurrent_first_submits_publish_once(self, monkeypatch):
        # a memo miss is single-flight: racing first submits of one new
        # matrix hash and publish it once.  A slowed publish holds the race
        # window open, so without the guard every thread would miss.
        matrix, rhs = _spd_system(16, 4.0, 47)
        with ClusterEngine(num_workers=1) as cluster:
            publish = cluster._registry.publish

            def slow_publish(array):
                time.sleep(0.05)
                return publish(array)

            monkeypatch.setattr(cluster._registry, "publish", slow_publish)
            barrier = threading.Barrier(4)

            def submit(_):
                barrier.wait()
                return cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                      backend="ideal", kappa=4.0)

            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = list(pool.map(submit, range(4)))
            for future in futures:
                assert future.result(timeout=30).scaled_residual < 1e-2
            shared = cluster.stats(include_workers=False)["shared_memory"]
            assert shared["publishes"] == 1 and shared["segments"] == 1

    def test_close_reads_every_farewell(self):
        # the collector exits once each worker's farewell is read (not on
        # its idle tick), and those final stats survive the close.
        matrix, rhs = _spd_system(8, 4.0, 53)
        cluster = ClusterEngine(num_workers=2)
        cluster.solve(matrix, rhs, epsilon_l=1e-2, backend="ideal", kappa=4.0)
        cluster.close()
        assert not cluster._collector.is_alive()
        finals = [worker.final_stats
                  for worker in cluster._fleet.workers.values()]
        assert all(final is not None for final in finals)
        assert sum(final["served"] for final in finals) == 1

    def test_stats_probes_do_not_consume_admission_slots(self):
        # monitoring is control traffic: polling stats must neither occupy
        # queue_limit slots nor leak depth, even with the tightest limit.
        matrix, rhs = _spd_system(8, 4.0, 41)
        with ClusterEngine(num_workers=1, queue_limit=1) as cluster:
            for _ in range(3):
                cluster.worker_stats()
            depths = cluster.stats(include_workers=False)["queue_depths"]
            assert all(depth == 0 for depth in depths.values())
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2

    def test_cancelled_future_does_not_kill_the_collector(self):
        # the chaos-slowed worker holds every request 0.3 s, so the cancel
        # always precedes the answer.  The collector must survive settling
        # a cancelled future, keep serving, and count it as cancelled —
        # an answer nobody received is not a completed solve.
        matrix, rhs = _spd_system(8, 4.0, 43)
        with ClusterEngine(num_workers=1, hedging=False,
                           chaos=ChaosSpec(slow_rate=1.0,
                                           slow_seconds=0.3)) as cluster:
            future = cluster.submit(matrix, rhs, epsilon_l=1e-2,
                                    backend="ideal", kappa=4.0)
            assert future.cancel()
            record = cluster.solve(matrix, rhs, epsilon_l=1e-2,
                                   backend="ideal", kappa=4.0)
            assert record.scaled_residual < 1e-2
            assert cluster._collector.is_alive()
            deadline = time.monotonic() + 10.0
            while cluster.stats(include_workers=False)["inflight"]:
                assert time.monotonic() < deadline, "cancelled never settled"
                time.sleep(0.02)
            stats = cluster.stats(include_workers=False)
            assert stats["submitted"] == 2 and stats["completed"] == 1
            outcomes = cluster.observability.metrics.get(
                "cluster_requests_total")
            assert outcomes.value(outcome="completed") == 1
            assert outcomes.value(outcome="cancelled") == 1

    def test_closed_engine_rejects_new_work(self):
        matrix, rhs = _spd_system(8, 4.0, 23)
        cluster = ClusterEngine(num_workers=1)
        cluster.close()
        with pytest.raises(RuntimeError):
            cluster.submit(matrix, rhs)
        cluster.close()                            # idempotent



class TestServingHTTP:
    @pytest.fixture()
    def served(self):
        with ClusterEngine(num_workers=2, tenant_rate=0.001,
                           tenant_burst=1.0) as cluster:
            with ServingHTTPServer(cluster) as server:
                host, port = server.address
                yield cluster, f"http://{host}:{port}"

    def _post(self, base, payload):
        request = urllib.request.Request(
            f"{base}/solve", data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)

    def test_solve_roundtrip_and_telemetry(self, served):
        _, base = served
        matrix, rhs = _spd_system(8, 4.0, 29)
        status, body = self._post(base, {
            "matrix": matrix.tolist(), "rhs": rhs.tolist(),
            "epsilon_l": 1e-2, "backend": "ideal", "kappa": 4.0})
        assert status == 200
        reference = QSVTLinearSolver(matrix, epsilon_l=1e-2, backend="ideal",
                                     kappa=4.0).solve(rhs)
        np.testing.assert_allclose(body["x"], reference.x,
                                   rtol=0.0, atol=1e-12)
        assert body["worker"].startswith("worker-")
        with urllib.request.urlopen(f"{base}/healthz") as response:
            health = json.load(response)
        assert health["ok"] is True and health["workers_alive"] == 2
        assert health["worker_deaths"] == 0 and health["restarts"] == 0
        assert health["uptime_s"] > 0.0
        assert set(health["metrics_snapshot_age_s"]) == {"worker-0",
                                                         "worker-1"}
        assert health["event_log"]["write_errors"] == 0
        with urllib.request.urlopen(f"{base}/stats") as response:
            stats = json.load(response)
        assert stats["submitted"] == 1 and stats["latency"]["count"] == 1

    def test_quota_rejection_maps_to_429_with_retry_after(self, served):
        _, base = served
        matrix, rhs = _spd_system(8, 4.0, 31)
        payload = {"matrix": matrix.tolist(), "rhs": rhs.tolist(),
                   "epsilon_l": 1e-2, "backend": "ideal", "kappa": 4.0,
                   "tenant": "acme"}
        status, _ = self._post(base, payload)
        assert status == 200
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, payload)
        assert excinfo.value.code == 429
        assert float(excinfo.value.headers["Retry-After"]) > 0.0
        body = json.load(excinfo.value)
        assert body["retriable"] is True
        assert body["error"] == "QuotaExceededError"

    def test_expired_deadline_maps_to_504(self, served):
        _, base = served
        matrix, rhs = _spd_system(8, 4.0, 37)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, {"matrix": matrix.tolist(), "rhs": rhs.tolist(),
                              "epsilon_l": 1e-2, "backend": "ideal",
                              "kappa": 4.0, "deadline": 0.0})
        assert excinfo.value.code == 504
        body = json.load(excinfo.value)
        assert body["retriable"] is True
        assert body["error"] == "SolveTimeoutError"

    def test_no_live_worker_maps_to_503(self, kill_worker):
        matrix, rhs = _spd_system(8, 4.0, 39)
        with ClusterEngine(num_workers=2, respawn=False,
                           degraded_fallback=False) as cluster:
            with ServingHTTPServer(cluster) as server:
                host, port = server.address
                for worker_id in ("worker-0", "worker-1"):
                    kill_worker(cluster, worker_id)
                deadline = time.monotonic() + 10.0
                while cluster.workers_alive:
                    assert time.monotonic() < deadline, "deaths not reaped"
                    time.sleep(0.05)
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    self._post(f"http://{host}:{port}",
                               {"matrix": matrix.tolist(),
                                "rhs": rhs.tolist()})
                assert excinfo.value.code == 503
                body = json.load(excinfo.value)
                assert body["retriable"] is True
                assert body["error"] == "WorkerUnavailableError"

    def test_malformed_and_unknown_requests(self, served):
        _, base = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, {"rhs": [1.0]})       # no matrix
        assert excinfo.value.code == 400
        assert json.load(excinfo.value)["retriable"] is False
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{base}/nope")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("field, value, error", [
        ("deadline", "abc", "ValueError"),
        ("deadline", -1, "ValueError"),
        ("kappa", "abc", "ValueError"),
        ("epsilon_l", [1.0], "TypeError"),
    ])
    def test_malformed_numeric_field_is_a_400(self, served, field, value,
                                              error):
        # rejected at the edge: never dispatched, never a 500 or a late 504
        cluster, base = served
        matrix, rhs = _spd_system(8, 4.0, 41)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(base, {"matrix": matrix.tolist(), "rhs": rhs.tolist(),
                              field: value})
        assert excinfo.value.code == 400
        body = json.load(excinfo.value)
        assert body["error"] == error and body["retriable"] is False
        assert cluster.stats(include_workers=False)["submitted"] == 0
