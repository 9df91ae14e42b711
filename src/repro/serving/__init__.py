"""Sharded multi-worker serving tier over the solve engine.

This package scales the single-process serving stack (compiled-solver
cache → synthesis store → same-key coalescing) across worker
*processes*, with the three classic serving-tier ingredients:

* **routing** — :class:`~repro.serving.router.HashRing` places each matrix
  fingerprint on a consistent-hash ring with virtual nodes, so the same
  matrix always lands on the same live worker (cache heat) and a worker
  death moves only ~1/W of the key space (churn containment);
* **admission control** — :class:`~repro.serving.admission.AdmissionController`
  bounds per-worker queues and enforces per-tenant token-bucket quotas,
  shedding overload *at the front door* with explicit retriable errors
  instead of letting latency grow unboundedly;
* **workers** — :mod:`repro.serving.worker` processes run one synchronous
  batch loop over a tiered cache hierarchy (per-worker LRU → node-local
  store → shared store directory), coalescing each drained burst's
  same-fingerprint solves into one fused sweep per group;
* **fleet** — :mod:`repro.serving.fleet` keeps one record per worker
  (process, queues, an explicit state, drain flag, breaker, heartbeat),
  from which every routing fact is read, and its
  :class:`~repro.serving.fleet.Supervisor` respawns dead/hung workers
  (warm-restoring from the tiered store), back onto their old arcs;
* **resilience** — :mod:`repro.serving.resilience` holds the fault-loop
  primitives: :class:`~repro.serving.resilience.RetryPolicy` retries retriable
  rejections under decorrelated-jitter backoff,
  :class:`~repro.serving.resilience.CircuitBreaker` sheds traffic for
  workers presumed down, and the deterministic
  :class:`~repro.serving.resilience.ChaosPolicy` harness makes every one
  of those recovery paths reproducibly testable.

:class:`~repro.serving.frontend.ClusterEngine` is the in-process API
(``submit`` / ``solve`` / ``stats``);
:class:`~repro.serving.http.ServingHTTPServer` exposes it over
stdlib HTTP/JSON.  ``benchmarks/bench_serving_cluster.py`` measures the
tier under Zipf-distributed traffic, including a 10x overload run;
``benchmarks/bench_chaos.py`` replays a seeded kill schedule against it
and gates on no-silent-drops, post-retry success rate and
recovery-to-full-capacity time.

Examples
--------
>>> from repro.serving import ClusterEngine
>>> with ClusterEngine(num_workers=2) as cluster:
...     record = cluster.solve(A, b, epsilon_l=1e-3)
...     print(cluster.stats(include_workers=False)["latency"]["p99"])
"""

from .admission import AdmissionController, TokenBucket
from .fleet import Supervisor
from .frontend import ClusterEngine
from .http import ServingHTTPServer
from .resilience import (
    CHAOS_ENV_VAR,
    ChaosPolicy,
    ChaosSpec,
    CircuitBreaker,
    HedgePolicy,
    RetryPolicy,
)
from .router import DEFAULT_VNODES, HashRing
from .worker import WorkerConfig, worker_main

__all__ = [
    "HashRing",
    "DEFAULT_VNODES",
    "TokenBucket",
    "AdmissionController",
    "WorkerConfig",
    "worker_main",
    "ClusterEngine",
    "ServingHTTPServer",
    "RetryPolicy",
    "CircuitBreaker",
    "HedgePolicy",
    "ChaosSpec",
    "ChaosPolicy",
    "Supervisor",
    "CHAOS_ENV_VAR",
]
