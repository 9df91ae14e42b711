"""Serving cluster — Zipf traffic over problem families, plus a 10x overload.

Exercises the sharded serving tier (:mod:`repro.serving`) the way a service
actually meets load, in two phases:

* **Zipf phase** — closed-loop clients draw matrices from a pool of problem
  families (Poisson, convection–diffusion, Helmholtz, graph Laplacians,
  prescribed-spectrum) with Zipf(s=1.1) popularity — a few hot systems, a
  long warm tail, the distribution consistent-hash routing and the tiered
  cache hierarchy are built for.  Records sustained requests/second and
  client-observed p50/p99, verifies **every** response against a
  single-process :class:`~repro.core.qsvt_solver.QSVTLinearSolver` at
  1e-12, and checks routing stickiness (each matrix served by exactly one
  worker).
* **Overload phase** — an open-loop storm offering >= 10x the measured
  sustained throughput against deliberately small per-worker queues.  The
  acceptance criteria are the serving tier's whole point: excess load is
  rejected *explicitly* (``QueueFullError`` / ``QuotaExceededError``, all
  retriable), every admitted request completes with bounded latency, no
  exception of any other type escapes, and no worker dies.

Results go to ``benchmarks/results/serving_cluster.txt`` (human-readable)
and ``BENCH_serving_cluster.json`` at the repository root (machine-readable).
Run directly for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_serving_cluster.py --smoke

which exits non-zero when any acceptance criterion regresses.
"""

import argparse
import json
import pathlib
import sys
import threading
import time

import numpy as np

from repro.core import QSVTLinearSolver
from repro.exceptions import AdmissionError, QueueFullError, QuotaExceededError
from repro.problems import PROBLEM_FAMILIES
from repro.reporting import format_table
from repro.serving import ClusterEngine

try:
    from .common import emit
except ImportError:     # script mode: python benchmarks/bench_serving_cluster.py
    from common import emit

_EPSILON_L = 1e-2
_ZIPF_S = 1.1
_JSON_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_serving_cluster.json")

#: cluster answers must match single-process answers to this tolerance.
_EQUALITY_TOL = 1e-12
#: the storm must offer at least this multiple of the sustained throughput.
_MIN_OVERLOAD_RATIO = 10.0
#: admitted-under-overload latency p99 must stay below this bound (bounded
#: queues mean queueing delay is queue_limit * service time, not open-ended).
_MAX_OVERLOAD_P99_S = 2.0


# ---------------------------------------------------------------------- #
# workload pool
# ---------------------------------------------------------------------- #
def _build_pool(smoke: bool) -> list[dict]:
    """Distinct systems from the problem-family registry, hot-first.

    Each entry carries the family workload's matrix, rhs, and its pinned
    condition number (analytic where the family knows it), so the cluster
    and the single-process reference compile identical solvers.
    """
    # assembly="dense" is pinned everywhere: the serving wire format ships
    # concrete arrays (inline or via shared memory), so the pool must not
    # pick up the problem registry's structured/matrix-free default.
    selections = [
        ("poisson-2d", {"grid_points": 4, "assembly": "dense"}),
        ("convection-diffusion", {"num_points": 16, "peclet": 0.8,
                                  "assembly": "dense"}),
        ("graph-laplacian", {"topology": "path", "num_nodes": 16,
                             "assembly": "dense"}),
    ]
    if not smoke:
        selections += [
            ("helmholtz", {"num_points": 16, "assembly": "dense"}),
            ("prescribed-spectrum", {"dimension": 16,
                                     "condition_number": 30.0}),
            ("poisson-3d", {"grid_points": 2, "assembly": "dense"}),
            ("convection-diffusion", {"num_points": 16, "peclet": 0.3,
                                      "assembly": "dense"}),
            ("graph-laplacian", {"topology": "cycle", "num_nodes": 16,
                                 "assembly": "dense"}),
        ]
    pool = []
    for name, params in selections:
        workload = PROBLEM_FAMILIES[name].workloads(**params)[0]
        kappa = float(workload.condition_number)
        pool.append({
            "family": name,
            "name": workload.name,
            "matrix": np.ascontiguousarray(workload.matrix, dtype=float),
            "rhs": np.asarray(workload.rhs, dtype=float),
            "kappa": kappa,
            "dimension": int(workload.dimension),
        })
    return pool


def _zipf_weights(count: int, s: float = _ZIPF_S) -> np.ndarray:
    ranks = np.arange(1, count + 1, dtype=float)
    weights = ranks ** (-s)
    return weights / weights.sum()


def _references(pool: list[dict]) -> list[np.ndarray]:
    """Single-process ground truth, one compiled solver per distinct system."""
    references = []
    for entry in pool:
        solver = QSVTLinearSolver(entry["matrix"], epsilon_l=_EPSILON_L,
                                  backend="ideal", kappa=entry["kappa"])
        references.append(solver.solve(entry["rhs"]).x)
    return references


# ---------------------------------------------------------------------- #
# phase 1: Zipf-distributed closed-loop traffic
# ---------------------------------------------------------------------- #
def _measure_zipf(cluster: ClusterEngine, pool: list[dict],
                  references: list[np.ndarray], *, num_requests: int,
                  clients: int, rng_seed: int = 0) -> dict:
    weights = _zipf_weights(len(pool))
    draws = np.random.default_rng(rng_seed).choice(len(pool),
                                                   size=num_requests,
                                                   p=weights)
    partitions = np.array_split(draws, clients)
    latencies: list[list[float]] = [[] for _ in range(clients)]
    deviations = [0.0] * clients
    owners: list[dict[int, set]] = [{} for _ in range(clients)]
    errors: list[BaseException] = []

    def client(worker_index: int, indices) -> None:
        for pool_index in indices:
            entry = pool[pool_index]
            start = time.perf_counter()
            try:
                future = cluster.submit(entry["matrix"], entry["rhs"],
                                        epsilon_l=_EPSILON_L, backend="ideal",
                                        kappa=entry["kappa"])
                record = future.result()
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                errors.append(exc)
                return
            latencies[worker_index].append(time.perf_counter() - start)
            deviations[worker_index] = max(
                deviations[worker_index],
                float(np.max(np.abs(record.x - references[pool_index]))))
            owners[worker_index].setdefault(int(pool_index),
                                            set()).add(future.worker_id)

    threads = [threading.Thread(target=client, args=(i, partition))
               for i, partition in enumerate(partitions)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_time = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"zipf phase raised: {errors[:3]!r}")

    merged_owners: dict[int, set] = {}
    for table in owners:
        for pool_index, workers in table.items():
            merged_owners.setdefault(pool_index, set()).update(workers)
    all_latencies = np.array([value for chunk in latencies for value in chunk])
    per_worker = cluster.worker_stats()
    stats = cluster.stats(include_workers=False)
    return {
        "num_requests": num_requests,
        "clients": clients,
        "zipf_s": _ZIPF_S,
        "pool": [{"family": e["family"], "name": e["name"],
                  "dimension": e["dimension"], "kappa": e["kappa"],
                  "weight": float(w)}
                 for e, w in zip(pool, _zipf_weights(len(pool)))],
        "wall_time_s": wall_time,
        "throughput_rps": num_requests / wall_time,
        "p50_s": float(np.percentile(all_latencies, 50)),
        "p99_s": float(np.percentile(all_latencies, 99)),
        "max_deviation": max(deviations),
        "workers": len(cluster.workers_alive),
        "sticky_routing": all(len(w) == 1 for w in merged_owners.values()),
        "coalesced_requests": sum(
            w.get("coalesced_requests", 0) for w in per_worker.values()),
        "cache_hits": sum(
            w.get("cache", {}).get("hits", 0) for w in per_worker.values()),
        "served_per_worker": {wid: w.get("served", 0)
                              for wid, w in per_worker.items()},
        "engine_latency": stats["latency"],
    }


# ---------------------------------------------------------------------- #
# phase 2: 10x overload storm
# ---------------------------------------------------------------------- #
def _measure_overload(cluster: ClusterEngine, pool: list[dict],
                      references: list[np.ndarray], *,
                      sustained_rps: float, storm_requests: int,
                      rng_seed: int = 1) -> dict:
    """Open-loop storm: fire requests far faster than the fleet can serve.

    Half the traffic carries a tenant label so the quota bucket sheds too;
    the other half is anonymous and bounded by the queue watermark alone.
    """
    weights = _zipf_weights(len(pool))
    draws = np.random.default_rng(rng_seed).choice(len(pool),
                                                   size=storm_requests,
                                                   p=weights)
    futures = []
    rejected_queue_full = 0
    rejected_quota = 0
    unexpected_submit_errors = 0
    submit_start = time.perf_counter()
    for sequence, pool_index in enumerate(draws):
        entry = pool[pool_index]
        tenant = "storm-tenant" if sequence % 2 else None
        try:
            futures.append((pool_index, time.perf_counter(),
                            cluster.submit(entry["matrix"], entry["rhs"],
                                           epsilon_l=_EPSILON_L,
                                           backend="ideal",
                                           kappa=entry["kappa"],
                                           tenant=tenant)))
        except QueueFullError:
            rejected_queue_full += 1
        except QuotaExceededError:
            rejected_quota += 1
        except BaseException:  # noqa: BLE001 - anything else breaks the gate
            unexpected_submit_errors += 1
    submit_time = time.perf_counter() - submit_start
    offered_rps = storm_requests / max(submit_time, 1e-9)

    completed = 0
    unexpected_errors = unexpected_submit_errors
    max_deviation = 0.0
    admitted_latencies = []
    for pool_index, submitted_at, future in futures:
        try:
            record = future.result(timeout=60.0)
        except AdmissionError:
            # a worker death mid-storm would surface here; count it as
            # unexpected — the storm must not kill workers.
            unexpected_errors += 1
            continue
        except BaseException:  # noqa: BLE001
            unexpected_errors += 1
            continue
        completed += 1
        admitted_latencies.append(time.perf_counter() - submitted_at)
        max_deviation = max(max_deviation, float(
            np.max(np.abs(record.x - references[pool_index]))))

    # the fleet must still be fully serviceable after the storm
    post = pool[0]
    post_record = cluster.solve(post["matrix"], post["rhs"],
                                epsilon_l=_EPSILON_L, backend="ideal",
                                kappa=post["kappa"])
    post_storm_ok = bool(
        np.max(np.abs(post_record.x - references[0])) <= _EQUALITY_TOL)
    stats = cluster.stats(include_workers=False)
    rejected = rejected_queue_full + rejected_quota
    return {
        "storm_requests": storm_requests,
        "offered_rps": offered_rps,
        "sustained_rps": sustained_rps,
        "offered_ratio": offered_rps / max(sustained_rps, 1e-9),
        "admitted": len(futures),
        "completed": completed,
        "rejected": rejected,
        "rejected_queue_full": rejected_queue_full,
        "rejected_quota": rejected_quota,
        "unexpected_errors": unexpected_errors,
        "admitted_p50_s": (float(np.percentile(admitted_latencies, 50))
                           if admitted_latencies else 0.0),
        "admitted_p99_s": (float(np.percentile(admitted_latencies, 99))
                           if admitted_latencies else 0.0),
        "max_deviation": max_deviation,
        "worker_deaths": stats["worker_deaths"],
        "workers_alive_after": stats["workers_alive"],
        "post_storm_ok": post_storm_ok,
        "shed_fraction": rejected / storm_requests,
    }


# ---------------------------------------------------------------------- #
def run_benchmark(*, smoke: bool = False) -> dict:
    if smoke:
        num_workers, zipf_requests, clients, storm_requests = 2, 40, 2, 80
    else:
        num_workers, zipf_requests, clients, storm_requests = 2, 400, 8, 1500

    pool = _build_pool(smoke)
    references = _references(pool)

    # Zipf phase: generous queues, no quotas — measure what the fleet
    # sustains when everything is admitted.  Hedging is off: this phase
    # gates on sticky routing (one worker per fingerprint), and a derived
    # hedge winning a race would register as a second server.
    with ClusterEngine(num_workers=num_workers, queue_limit=256,
                       hedging=False) as cluster:
        zipf = _measure_zipf(cluster, pool, references,
                             num_requests=zipf_requests, clients=clients)

    # Overload phase: fresh fleet with deliberately small queues and a
    # tenant quota, so both shedding mechanisms fire under the storm.
    with ClusterEngine(num_workers=num_workers, queue_limit=8,
                       tenant_rate=20.0, tenant_burst=40.0,
                       hedging=False) as cluster:
        # warm the per-worker caches so storm latency measures queueing +
        # solving, not one-off synthesis.
        for entry, reference in zip(pool, references):
            record = cluster.solve(entry["matrix"], entry["rhs"],
                                   epsilon_l=_EPSILON_L, backend="ideal",
                                   kappa=entry["kappa"])
            deviation = float(np.max(np.abs(record.x - reference)))
            if deviation > _EQUALITY_TOL:
                raise RuntimeError(f"warmup deviates by {deviation:.2e}")
        overload = _measure_overload(cluster, pool, references,
                                     sustained_rps=zipf["throughput_rps"],
                                     storm_requests=storm_requests)

    summary = {
        "smoke": smoke,
        "epsilon_l": _EPSILON_L,
        "num_workers": num_workers,
        "zipf": zipf,
        "overload": overload,
    }

    text = "\n\n".join([
        format_table(
            [{"family": p["family"], "N": p["dimension"],
              "kappa": p["kappa"], "zipf weight": p["weight"]}
             for p in zipf["pool"]],
            title=(f"Zipf(s={_ZIPF_S}) workload pool "
                   f"({len(pool)} problem-family systems)")),
        format_table(
            [{"workers": zipf["workers"], "clients": zipf["clients"],
              "requests": zipf["num_requests"],
              "req/s": zipf["throughput_rps"],
              "p50 [s]": zipf["p50_s"], "p99 [s]": zipf["p99_s"],
              "coalesced": zipf["coalesced_requests"],
              "max dev": zipf["max_deviation"]}],
            title="Sustained Zipf traffic (closed-loop clients, "
                  "every response checked against single-process solves)"),
        format_table(
            [{"offered/sustained": overload["offered_ratio"],
              "admitted": overload["admitted"],
              "rejected": overload["rejected"],
              "queue-full": overload["rejected_queue_full"],
              "quota": overload["rejected_quota"],
              "admitted p99 [s]": overload["admitted_p99_s"],
              "deaths": overload["worker_deaths"],
              "unexpected": overload["unexpected_errors"]}],
            title="Overload storm (open loop, bounded queues + tenant quota; "
                  "rejections are explicit and retriable)"),
    ])
    if smoke:
        # threshold gate only; never overwrite the full-run artifacts
        emit("serving_cluster_smoke", text)
    else:
        _JSON_PATH.write_text(json.dumps(summary, indent=2, default=float)
                              + "\n", encoding="utf-8")
        emit("serving_cluster", text + f"\n\nwritten: {_JSON_PATH.name}")
    return summary


def _check(summary: dict) -> list[str]:
    """Acceptance criteria of the serving-cluster tentpole; empty = pass."""
    failures = []
    zipf, overload = summary["zipf"], summary["overload"]
    if zipf["workers"] < 2:
        failures.append(f"zipf phase ran on {zipf['workers']} worker(s); "
                        "the tier must sustain >= 2")
    if zipf["max_deviation"] > _EQUALITY_TOL:
        failures.append(f"cluster answers deviate from single-process solves "
                        f"by {zipf['max_deviation']:.2e} "
                        f"(tolerance {_EQUALITY_TOL:.0e})")
    if not zipf["sticky_routing"]:
        failures.append("a matrix was served by more than one worker "
                        "(consistent-hash routing is not sticky)")
    if zipf["throughput_rps"] <= 0:
        failures.append("no sustained throughput measured")
    if not summary["smoke"] and overload["offered_ratio"] < _MIN_OVERLOAD_RATIO:
        failures.append(f"storm offered only {overload['offered_ratio']:.1f}x "
                        f"the sustained rate (need >= {_MIN_OVERLOAD_RATIO}x)")
    if overload["rejected"] == 0:
        failures.append("overload shed nothing: queues absorbed a storm that "
                        "must exceed them")
    if overload["unexpected_errors"] > 0:
        failures.append(f"{overload['unexpected_errors']} request(s) failed "
                        "with something other than an explicit admission "
                        "rejection")
    if overload["completed"] != overload["admitted"]:
        failures.append(f"only {overload['completed']} of "
                        f"{overload['admitted']} admitted requests completed")
    if overload["admitted_p99_s"] > _MAX_OVERLOAD_P99_S:
        failures.append(f"admitted-under-overload p99 "
                        f"{overload['admitted_p99_s']:.2f}s exceeds the "
                        f"{_MAX_OVERLOAD_P99_S}s bound")
    if overload["max_deviation"] > _EQUALITY_TOL:
        failures.append(f"overload answers deviate by "
                        f"{overload['max_deviation']:.2e}")
    if overload["worker_deaths"] > 0 or not overload["post_storm_ok"]:
        failures.append("the storm killed a worker or left the fleet "
                        "unserviceable")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration (the CI regression gate)")
    args = parser.parse_args(argv)
    summary = run_benchmark(smoke=args.smoke)
    zipf, overload = summary["zipf"], summary["overload"]
    print(f"zipf: {zipf['throughput_rps']:.1f} req/s on {zipf['workers']} "
          f"workers (p50 {zipf['p50_s'] * 1e3:.1f} ms, "
          f"p99 {zipf['p99_s'] * 1e3:.1f} ms, "
          f"max dev {zipf['max_deviation']:.2e}); "
          f"overload: {overload['offered_ratio']:.0f}x offered, "
          f"{overload['rejected']} rejected "
          f"({overload['rejected_queue_full']} queue-full / "
          f"{overload['rejected_quota']} quota), "
          f"admitted p99 {overload['admitted_p99_s'] * 1e3:.0f} ms, "
          f"{overload['worker_deaths']} deaths")
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
