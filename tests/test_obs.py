"""Tests for repro.obs: metrics registry, request tracing, event log.

Three layers of coverage:

1. unit behaviour of the primitives (counters/gauges/histograms and their
   mergeable snapshots, deterministic trace sampling, span nesting, the
   dual-homed event log);
2. the engine integration: coalesced requests sharing one sweep span by
   reference, cache/store instrumentation riding the registry;
3. the serving tier's hard propagation paths — worker respawn, in-flight
   redispatch, degraded classical fallback, and the cross-process span
   round-trip — plus the HTTP observability endpoints.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.engine import CompiledSolverCache
from repro.obs import Observability
from repro.obs.events import EventLog
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    relabel_snapshot,
    render_prometheus,
)
from repro.obs.trace import (
    TraceContext,
    Tracer,
    activated,
    current_trace,
    default_sample_rate,
    span,
    trace_is_sampled,
)
from repro.serving import (
    ChaosSpec,
    CircuitBreaker,
    ClusterEngine,
    ServingHTTPServer,
)
from repro.serving.worker import GroupSweeper, SolveGroup
from repro.utils import LatencyHistogram


def _spd_system(n: int, kappa: float, seed: int):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    matrix = q @ np.diag(np.linspace(1.0, kappa, n)) @ q.T
    return matrix, rng.normal(size=n)


def _wait_until(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for: {message}")


# ---------------------------------------------------------------------- #
# metrics registry
# ---------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", "hits")
        counter.inc()
        counter.inc(2.0, result="miss")
        counter.inc(result="miss")
        assert counter.value() == 1.0
        assert counter.value(result="miss") == 3.0
        assert counter.total() == 4.0

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c_total", "c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth", "d")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value() == 4.0

    def test_registration_is_idempotent_but_type_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        assert registry.counter("x_total", "x") is first
        with pytest.raises(TypeError):
            registry.gauge("x_total", "x")

    def test_histogram_labelled_is_the_series(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat_seconds", "latency")
        underlying = histogram.labelled()
        assert isinstance(underlying, LatencyHistogram)
        underlying.record(0.5)
        histogram.observe(1.5)
        assert histogram.summary()["count"] == 2

    def test_snapshot_merge_adds_counters_and_folds_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("req_total", "r").inc(3.0)
        b.counter("req_total", "r").inc(4.0)
        a.histogram("lat_seconds", "l").observe(1.0)
        b.histogram("lat_seconds", "l").observe(3.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        series = merged["repro_req_total"]["series"]
        assert list(series.values()) == [7.0]
        folded = LatencyHistogram.from_state(
            next(iter(merged["repro_lat_seconds"]["series"].values())))
        assert folded.summary()["count"] == 2

    def test_relabel_keeps_snapshots_disjoint(self):
        a = MetricsRegistry()
        a.counter("req_total", "r").inc(2.0)
        merged = merge_snapshots([relabel_snapshot(a.snapshot(), worker="w0"),
                                  relabel_snapshot(a.snapshot(), worker="w1")])
        series = merged["repro_req_total"]["series"]
        assert len(series) == 2 and all(v == 2.0 for v in series.values())

    def test_prometheus_rendering(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests").inc(5.0, code="200")
        registry.gauge("depth", "queue depth").set(3.0)
        registry.histogram("lat_seconds", "latency").observe(0.25)
        text = render_prometheus(registry.snapshot())
        assert "# TYPE repro_req_total counter" in text
        assert 'repro_req_total{code="200"} 5' in text
        assert "repro_depth 3" in text
        assert 'repro_lat_seconds{quantile="0.5"}' in text
        assert "repro_lat_seconds_count 1" in text

    def test_merge_rejects_cross_type_collision(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("x_total", "x").inc()
        b.gauge("x_total", "x").set(1.0)
        with pytest.raises(TypeError):
            merge_snapshots([a.snapshot(), b.snapshot()])


# ---------------------------------------------------------------------- #
# tracing
# ---------------------------------------------------------------------- #
class TestTracing:
    def test_sampling_is_deterministic_and_monotone(self):
        trace_id = "deadbeef" * 4
        assert trace_is_sampled(trace_id, 1.0)
        assert not trace_is_sampled(trace_id, 0.0)
        # the same id never flips between repeated evaluations
        assert all(trace_is_sampled(trace_id, 0.7)
                   == trace_is_sampled(trace_id, 0.7) for _ in range(10))
        # monotone in the rate: sampled at r implies sampled at r' > r
        for rate in (0.1, 0.3, 0.5, 0.9):
            if trace_is_sampled(trace_id, rate):
                assert trace_is_sampled(trace_id, min(1.0, rate + 0.05))

    def test_sample_rate_env_parsing(self, monkeypatch):
        for raw, expected in (("", 0.0), ("0", 0.0), ("off", 0.0),
                              ("1", 1.0), ("on", 1.0), ("0.25", 0.25),
                              ("nonsense", 0.0)):
            monkeypatch.setenv("REPRO_TRACE", raw)
            assert default_sample_rate() == expected

    def test_span_nesting_and_attrs(self):
        trace = TraceContext("t" * 32, sampled=True)
        with trace.span("outer", kind="test"):
            with trace.span("inner"):
                pass
        outer, inner = trace.spans
        assert outer["parent_id"] is None
        assert inner["parent_id"] == outer["span_id"]
        assert outer["attrs"]["kind"] == "test"
        assert outer.duration >= inner.duration >= 0.0

    def test_unsampled_trace_records_nothing(self):
        trace = TraceContext("t" * 32, sampled=False)
        with trace.span("op"):
            pass
        trace.add_span("pre", duration=1.0)
        assert trace.spans == []

    def test_ambient_span_helper_noops_without_trace(self):
        assert current_trace() is None
        with span("orphan"):  # must not raise nor record anywhere
            pass

    def test_activated_scopes_the_ambient_trace(self):
        trace = TraceContext("t" * 32, sampled=True)
        with activated(trace):
            assert current_trace() is trace
            with span("ambient", tag=1):
                pass
        assert current_trace() is None
        assert [s.name for s in trace.spans] == ["ambient"]

    def test_wire_roundtrip_measures_queue_wait(self):
        trace = TraceContext("t" * 32, sampled=True, origin="fe")
        wire = trace.to_wire()
        remote = TraceContext.from_wire(wire, origin="worker-1")
        assert remote.trace_id == trace.trace_id and remote.sampled
        remote.add_span("queue_wait",
                        duration=time.monotonic() - wire["enqueued_at"])
        exported = remote.export_spans()
        # span ids from different origins never collide when adopted back
        assert exported[0]["span_id"].split("-")[1] == "worker"
        trace.adopt(exported)
        assert [s.name for s in trace.spans] == ["queue_wait"]

    def test_tracer_zero_rate_returns_none(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start() is None
        assert not tracer.enabled

    def test_buffer_ring_eviction_keeps_slow_log(self):
        tracer = Tracer(sample_rate=1.0, capacity=2)
        tracer.buffer.slow_threshold = 0.0  # everything is "slow"
        ids = []
        for _ in range(4):
            trace = tracer.start()
            ids.append(trace.trace_id)
            tracer.finish(trace)
        stats = tracer.stats()
        assert stats["stored"] == 2 and stats["evicted"] == 2
        assert tracer.buffer.get(ids[0]) is None  # evicted from the ring
        assert len(tracer.buffer.slow()) >= 2  # but slow log survives


# ---------------------------------------------------------------------- #
# event log
# ---------------------------------------------------------------------- #
class TestEventLog:
    def test_memory_ring_and_sequencing(self):
        log = EventLog(path=False, source="fe")
        log.emit("worker_death", worker="w0", incarnation=1)
        log.emit("worker_respawn", worker="w0", incarnation=2)
        events = log.events()
        assert [e["kind"] for e in events] == ["worker_death",
                                               "worker_respawn"]
        assert [e["seq"] for e in events] == [1, 2]
        assert all(e["source"] == "fe" for e in events)

    def test_file_interleaving_and_read_back(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        a = EventLog(path, source="frontend")
        b = EventLog(path, source="worker-0")
        a.emit("breaker_open", worker="w0")
        b.emit("chaos_fault", fault="crash", trace_id="abc")
        b.sync()
        a.close()
        b.close()
        records = EventLog.read_file(path)
        assert {r["kind"] for r in records} == {"breaker_open", "chaos_fault"}
        fault = next(r for r in records if r["kind"] == "chaos_fault")
        assert fault["trace_id"] == "abc" and fault["source"] == "worker-0"

    def test_read_file_skips_torn_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"kind": "ok"}\n{"kind": "torn', encoding="utf-8")
        records = EventLog.read_file(str(path))
        assert [r["kind"] for r in records] == ["ok"]

    def test_ingest_folds_foreign_events(self):
        log = EventLog(path=False)
        assert log.ingest({"kind": "worker_death", "seq": 9}) is not None
        assert log.ingest("not a record") is None
        assert log.events(kind="worker_death")[0]["seq"] == 9

    def test_on_emit_tap_failures_are_swallowed(self):
        log = EventLog(path=False)
        seen = []
        log.on_emit = seen.append
        log.emit("a")
        log.on_emit = lambda record: 1 / 0
        log.emit("b")  # must not raise
        assert seen[0]["kind"] == "a" and len(log.events()) == 2

    def test_env_var_resolution(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EVENT_LOG", "off")
        assert EventLog().path is None
        target = str(tmp_path / "e.jsonl")
        monkeypatch.setenv("REPRO_EVENT_LOG", target)
        log = EventLog()
        assert log.path == target
        log.close()

    def test_stats_reports_lag(self):
        clock = iter([10.0, 13.5]).__next__
        log = EventLog(path=False, clock=clock)
        log.emit("tick")
        assert log.stats()["last_event_age_s"] == pytest.approx(3.5)


# ---------------------------------------------------------------------- #
# engine integration: shared sweep spans under coalescing
# ---------------------------------------------------------------------- #
class TestEngineTracing:
    def test_coalesced_batch_shares_one_sweep_span(self):
        matrix, _ = _spd_system(8, 4.0, 5)
        rng = np.random.default_rng(6)
        registry = MetricsRegistry()
        sweeper = GroupSweeper(CompiledSolverCache(metrics=registry),
                               metrics=registry)
        traces = [TraceContext(f"{i:032x}", sampled=True) for i in range(4)]
        group = SolveGroup(matrix, 1e-2, "ideal", 4.0, None, {})
        for index, trace in enumerate(traces):
            group.add(rng.normal(size=8), index, trace=trace)
        records = sweeper.sweep(group)
        assert all(record.scaled_residual < 1e-2 for record in records)
        sweep_ids = set()
        for trace in traces:
            names = [s.name for s in trace.spans]
            assert "coalesce" in names and "sweep" in names
            sweep_ids.update(s.span_id for s in trace.spans
                             if s.name == "sweep")
        # ONE fused sweep, adopted by reference into every member trace
        assert len(sweep_ids) == 1
        snapshot = registry.snapshot()
        counts = snapshot["repro_engine_requests_total"]["series"]
        assert sum(counts.values()) == 4
        assert sum(snapshot["repro_engine_batches_total"]["series"].values()) == 1


# ---------------------------------------------------------------------- #
# serving tier: the hard propagation paths
# ---------------------------------------------------------------------- #
class TestServingTracePropagation:
    def test_cross_process_trace_roundtrip(self):
        with ClusterEngine(num_workers=2, respawn=False,
                           trace_sample_rate=1.0,
                           event_log_path=False) as engine:
            matrix, rhs = _spd_system(8, 4.0, 21)
            future = engine.submit(matrix, rhs, backend="ideal", kappa=4.0)
            future.result(timeout=30)
            record = engine.trace(future.trace_id)
            assert record is not None and record["status"] == "ok"
            names = [s["name"] for s in record["spans"]]
            for expected in ("route", "admit", "queue_wait", "coalesce",
                             "sweep"):
                assert expected in names, (expected, names)
            queue_wait = next(s for s in record["spans"]
                              if s["name"] == "queue_wait")
            assert queue_wait["attrs"]["worker"].startswith("worker-")
            assert queue_wait["duration"] >= 0.0

    def test_unsampled_requests_leave_no_trace(self):
        with ClusterEngine(num_workers=1, respawn=False,
                           trace_sample_rate=0.0,
                           event_log_path=False) as engine:
            matrix, rhs = _spd_system(8, 4.0, 22)
            future = engine.submit(matrix, rhs, backend="ideal", kappa=4.0)
            future.result(timeout=30)
            assert not hasattr(future, "trace_id")
            assert engine.observability.tracer.stats()["finished"] == 0

    def test_redispatch_hop_spans_after_worker_death(
            self, assert_counters_match_events):
        spec = ChaosSpec(seed=5, crash_points=((0, 0),),
                         workers=("worker-0",))
        with ClusterEngine(num_workers=2, chaos=spec,
                           trace_sample_rate=1.0, event_log_path=False,
                           supervisor_interval=0.05,
                           breaker_failure_threshold=100) as engine:
            matrices = [_spd_system(8, 4.0, seed) for seed in range(8)]
            futures = [engine.submit(m, rhs, backend="ideal", kappa=4.0)
                       for m, rhs in matrices]
            records = [f.result(timeout=30) for f in futures]
            assert all(r.scaled_residual < 1e-2 for r in records)
            tracer = engine.observability.tracer
            assert tracer.stats()["finished"] == len(futures)
            redispatched = [
                tracer.buffer.get(tid) for tid in tracer.buffer.trace_ids()
                if tracer.buffer.get(tid)["attrs"].get("redispatches", 0) > 0]
            assert redispatched, "the crash should orphan at least one request"
            for record in redispatched:
                names = [s["name"] for s in record["spans"]]
                assert "redispatch" in names
                hop = next(s for s in record["spans"]
                           if s["name"] == "redispatch")
                assert hop["attrs"]["worker_from"] == "worker-0"
            # the crash fault's queue copy is best-effort (os._exit can beat
            # the feeder thread) — durable auditing goes through the shared
            # file, covered by test_respawn_timeline_and_trace_continuity.
            # The death itself is a frontend-observed event and always lands.
            assert engine.observability.events.events(kind="worker_death")
            _wait_until(lambda: len(engine.workers_alive) == 2,
                        message="respawn never re-ringed the worker")
            counts = assert_counters_match_events(engine)
            assert counts["redispatch"] >= 1

    def test_degraded_fallback_trace_is_complete(
            self, assert_counters_match_events, kill_worker):
        with ClusterEngine(num_workers=1, respawn=False, max_redispatch=0,
                           trace_sample_rate=1.0,
                           event_log_path=False) as engine:
            kill_worker(engine, "worker-0")
            _wait_until(lambda: len(engine.workers_alive) == 0,
                        message="death never detected")
            matrix, rhs = _spd_system(8, 4.0, 23)
            future = engine.submit(matrix, rhs)
            record = future.result(timeout=30)
            assert record.degraded
            trace = engine.trace(future.trace_id)
            assert trace is not None and trace["status"] == "degraded"
            names = [s["name"] for s in trace["spans"]]
            assert "degraded" in names
            assert engine.observability.events.events(
                kind="degraded_fallback")
            counts = assert_counters_match_events(engine)
            assert counts["worker_death"] == 1

    def test_respawn_timeline_and_trace_continuity(
            self, tmp_path, assert_counters_match_events):
        path = str(tmp_path / "events.jsonl")
        spec = ChaosSpec(seed=9, crash_points=((0, 1),),
                         workers=("worker-0",))
        with ClusterEngine(num_workers=2, chaos=spec,
                           trace_sample_rate=1.0, event_log_path=path,
                           supervisor_interval=0.05,
                           breaker_failure_threshold=100) as engine:
            matrices = [_spd_system(8, 4.0, seed) for seed in range(6)]
            futures = [engine.submit(m, rhs, backend="ideal", kappa=4.0)
                       for m, rhs in matrices]
            for future in futures:
                future.result(timeout=30)
            _wait_until(lambda: len(engine.workers_alive) == 2,
                        message="respawn never re-ringed the worker")
            # the respawned incarnation serves traced requests again
            matrix, rhs = _spd_system(8, 4.0, 77)
            future = engine.submit(matrix, rhs, backend="ideal", kappa=4.0)
            future.result(timeout=30)
            assert engine.trace(future.trace_id) is not None
            counts = assert_counters_match_events(engine)
            assert counts["worker_death"] == counts["worker_respawn"] == 1
        records = EventLog.read_file(path)
        kinds = [r["kind"] for r in records]
        assert "chaos_fault" in kinds
        death_index = kinds.index("worker_death")
        respawn_index = kinds.index("worker_respawn")
        assert kinds.index("chaos_fault") < death_index < respawn_index
        fault = next(r for r in records if r["kind"] == "chaos_fault")
        assert fault["worker"] == "worker-0" and fault["incarnation"] == 0
        assert fault.get("trace_id"), "fault must carry the observing trace"
        respawn = next(r for r in records if r["kind"] == "worker_respawn")
        assert respawn["incarnation"] == 1

    def test_breaker_transitions_reach_event_log(self):
        events = []
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=0.01,
            listener=lambda transition, **fields: events.append(transition))
        breaker.record_failure()
        breaker.record_failure()  # trips
        assert breaker.state == "open"
        time.sleep(0.02)
        assert breaker.allow()    # claims the half-open probe
        breaker.record_failure()  # probe fails: re-open
        time.sleep(0.02)
        assert breaker.allow()
        breaker.record_success()  # probe succeeds: close
        assert events == ["open", "half_open", "reopen", "half_open",
                          "close"]


# ---------------------------------------------------------------------- #
# cluster metrics aggregation + HTTP endpoints
# ---------------------------------------------------------------------- #
class TestClusterObservabilityAPI:
    def test_worker_metrics_merge_into_cluster_snapshot(self):
        with ClusterEngine(num_workers=2, respawn=False,
                           trace_sample_rate=0.0,
                           event_log_path=False) as engine:
            matrix, rhs = _spd_system(8, 4.0, 31)
            engine.solve(matrix, rhs, backend="ideal", kappa=4.0)
            merged = engine.metrics_snapshot()
            requests = merged["repro_engine_requests_total"]["series"]
            assert sum(requests.values()) == 1
            # worker series carry their worker label, frontend its role
            assert any("worker-" in str(key) for key in requests)
            cluster = merged["repro_cluster_requests_total"]["series"]
            assert sum(cluster.values()) == 1
            stats = engine.stats()
            assert stats["metrics"]["repro_engine_requests_total"]
            assert stats["obs"]["trace"]["sample_rate"] == 0.0

    def test_legacy_stats_keys_survive_migration(self):
        with ClusterEngine(num_workers=1, respawn=False,
                           event_log_path=False) as engine:
            matrix, rhs = _spd_system(8, 4.0, 32)
            engine.solve(matrix, rhs, backend="ideal", kappa=4.0)
            stats = engine.stats()
            assert stats["submitted"] == 1 and stats["completed"] == 1
            assert stats["latency"]["count"] == 1
            assert stats["admission"]["admitted"] == 1
            worker = stats["per_worker"]["worker-0"]
            for key in ("requests", "batches", "cache", "latency",
                        "served", "incarnation"):
                assert key in worker, key

    def test_http_metrics_trace_and_healthz(self):
        with ClusterEngine(num_workers=1, respawn=False,
                           trace_sample_rate=1.0,
                           event_log_path=False) as engine:
            with ServingHTTPServer(engine) as server:
                host, port = server.address
                base = f"http://{host}:{port}"
                matrix, rhs = _spd_system(8, 4.0, 33)
                request = urllib.request.Request(
                    f"{base}/solve",
                    data=json.dumps({"matrix": matrix.tolist(),
                                     "rhs": rhs.tolist(),
                                     "backend": "ideal",
                                     "kappa": 4.0}).encode(),
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request) as response:
                    body = json.load(response)
                assert body["trace_id"]
                with urllib.request.urlopen(
                        f"{base}/trace/{body['trace_id']}") as response:
                    trace = json.load(response)
                assert trace["trace_id"] == body["trace_id"]
                assert any(s["name"] == "sweep" for s in trace["spans"])
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(f"{base}/trace/{'0' * 32}")
                assert excinfo.value.code == 404
                with urllib.request.urlopen(f"{base}/metrics") as response:
                    assert (response.headers["Content-Type"]
                            == "text/plain; version=0.0.4")
                    text = response.read().decode()
                assert "repro_engine_requests_total" in text
                assert "repro_cluster_latency_seconds_count" in text
                with urllib.request.urlopen(f"{base}/healthz") as response:
                    health = json.load(response)
                assert health["tracing"] is True
                assert health["uptime_s"] > 0.0
                assert "worker-0" in health["metrics_snapshot_age_s"]
                assert health["event_log"]["write_errors"] == 0

    def test_store_quarantine_event_is_stamped(self, tmp_path):
        spec = ChaosSpec(seed=4, corrupt_store_rate=1.0,
                         workers=("worker-0",))
        with ClusterEngine(num_workers=1, chaos=spec, respawn=False,
                           local_store_dir=str(tmp_path / "local"),
                           trace_sample_rate=1.0,
                           event_log_path=False) as engine:
            matrix, rhs = _spd_system(8, 4.0, 35)
            # first solve writes a corrupted payload, second reads it back
            engine.solve(matrix, rhs, backend="ideal", kappa=4.0)
            _wait_until(
                lambda: engine.observability.events.events(
                    kind="chaos_fault"),
                message="corruption fault never reached the frontend ring")
            faults = engine.observability.events.events(kind="chaos_fault")
            assert faults[0]["fault"] == "corrupt_store"
