"""Replication benchmark — what R=2 ownership buys, and what it costs.

Three phases over the same Zipf workload pool, measuring the replicated
serving tier (:mod:`repro.serving`) against its single-owner baseline:

* **Healthy cost** — identical closed-loop Zipf runs at ``R=1`` and
  ``R=2``.  Replication is not free: every first-touch synthesis is warmed
  onto the next replica (one advisory ``warm`` message per fingerprint per
  incarnation) and every submit walks the ring for ``R`` owners instead of
  one.  The gate bounds that cost: R=2 throughput must stay within 10% of
  R=1 on the fault-free path (full mode; smoke boxes are too noisy to hold
  a throughput ratio).
* **Slow-fault p99** — one worker is chaos-scripted to stall every request
  (a ``slow_seconds`` sleep of the worker's whole batch loop, the classic
  gray failure: alive and answering, but late on everything, and short of
  the hang timeout, so it is never killed).  At ``R=1`` the stall is
  unavoidable — affected requests pay the full sleep, and p99 shows it.  At ``R=2`` with a
  ``hedge_after`` deadline the front end speculatively doubles the request
  onto the warm replica and takes the first answer: p99 collapses to about
  the hedge deadline.  The gate requires R=2 p99 to be at least 2x better.
* **Replicated kill** — a scripted SIGTERM of the hottest system's primary
  mid-traffic at ``R=2``.  In-flight work on the dead owner either has a
  live hedge already (promoted: zero extra dispatch) or is redispatched to
  its warm replica.  The gates are absolute: zero post-retry failures and
  zero degraded fallbacks — replication means a single death is invisible.

Results go to ``benchmarks/results/replication.txt`` (human-readable) and
``BENCH_replication.json`` at the repository root (machine-readable).  Run
directly for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_replication.py --smoke

which exits non-zero when any acceptance criterion regresses.
"""

import argparse
import json
import pathlib
import sys
import tempfile
import threading
import time

import numpy as np

from repro.serving import ChaosSpec, ClusterEngine, RetryPolicy

try:
    from .common import emit
    from .bench_serving_cluster import (
        _EPSILON_L,
        _ZIPF_S,
        _build_pool,
        _measure_zipf,
        _references,
        _zipf_weights,
    )
except ImportError:     # script mode: python benchmarks/bench_replication.py
    from common import emit
    from bench_serving_cluster import (
        _EPSILON_L,
        _ZIPF_S,
        _build_pool,
        _measure_zipf,
        _references,
        _zipf_weights,
    )

from repro.reporting import format_table

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_JSON_PATH = _ROOT / "BENCH_replication.json"

#: non-degraded answers must match single-process ground truth to this.
_PARITY_TOL = 1e-10
#: R=2 may cost at most this fraction of R=1 healthy-path throughput.
_MAX_HEALTHY_COST = 0.10
#: R=2 p99 under the slow fault must be at least this factor better.
_MIN_P99_RATIO = 2.0
#: the gray-failure script: every request on the victim stalls this long.
_SLOW_SECONDS = 0.4
#: hedge deadline used in the replicated (R=2) fault runs.
_HEDGE_AFTER = 0.05
#: progress fraction at which the kill-phase SIGTERM fires.
_KILL_FRACTION = 0.4


# ---------------------------------------------------------------------- #
# kill phase: retrying closed-loop clients + one scripted kill
# ---------------------------------------------------------------------- #
def _measure_kill(cluster: ClusterEngine, pool: list[dict],
                  references: list[np.ndarray], *, num_requests: int,
                  clients: int, rng_seed: int = 7) -> dict:
    weights = _zipf_weights(len(pool))
    draws = np.random.default_rng(rng_seed).choice(len(pool),
                                                   size=num_requests,
                                                   p=weights)
    partitions = np.array_split(draws, clients)
    settled = {"n": 0}
    count_lock = threading.Lock()
    successes = [0] * clients
    degraded = [0] * clients
    deviations = [0.0] * clients
    failures: list[str] = []
    kill = {"victim": None, "recovered_s": None}

    def killer() -> None:
        threshold = int(_KILL_FRACTION * num_requests)
        while settled["n"] < threshold:
            time.sleep(0.005)
        victim = cluster.route(pool[0]["matrix"])
        prior = cluster.stats(include_workers=False)["restarts"].get(victim, 0)
        killed_at = time.monotonic()
        cluster._fleet.workers[victim].process.terminate()
        kill["victim"] = victim
        deadline = killed_at + 15.0
        while time.monotonic() < deadline:
            stats = cluster.stats(include_workers=False)
            if stats["restarts"].get(victim, 0) > prior:
                kill["recovered_s"] = time.monotonic() - killed_at
                return
            time.sleep(0.01)

    def client(index: int, indices) -> None:
        policy = RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.5,
                             rng=500 + index)
        for pool_index in indices:
            entry = pool[pool_index]
            try:
                record = policy.execute(
                    cluster.solve, entry["matrix"], entry["rhs"],
                    epsilon_l=_EPSILON_L, backend="ideal",
                    kappa=entry["kappa"])
            except BaseException as exc:  # noqa: BLE001 - typed, counted
                failures.append(type(exc).__name__)
            else:
                successes[index] += 1
                if record.degraded:
                    degraded[index] += 1
                else:
                    deviations[index] = max(deviations[index], float(
                        np.max(np.abs(record.x - references[pool_index]))))
            finally:
                with count_lock:
                    settled["n"] += 1

    killer_thread = threading.Thread(target=killer, name="replication-killer",
                                     daemon=True)
    threads = [threading.Thread(target=client, args=(i, partition))
               for i, partition in enumerate(partitions)]
    start = time.perf_counter()
    killer_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_time = time.perf_counter() - start
    killer_thread.join(timeout=20.0)

    stats = cluster.stats(include_workers=False)
    return {
        "num_requests": num_requests,
        "clients": clients,
        "kill_fraction": _KILL_FRACTION,
        "victim": kill["victim"],
        "recovered_s": kill["recovered_s"],
        "wall_time_s": wall_time,
        "successes": sum(successes),
        "failures": len(failures),
        "failure_types": sorted(set(failures)),
        "degraded": sum(degraded),
        "max_deviation": max(deviations),
        "inflight_after_drain": stats["inflight"],
        "worker_deaths": stats["worker_deaths"],
        "failovers": stats["failovers"],
        "hedged": stats["hedged"],
        "hedge_wins": stats["hedge_wins"],
        "redispatched": stats["redispatched"],
    }


# ---------------------------------------------------------------------- #
def run_benchmark(*, smoke: bool = False) -> dict:
    if smoke:
        num_workers, zipf_requests, slow_requests, kill_requests, clients = \
            2, 40, 40, 30, 4
    else:
        num_workers, zipf_requests, slow_requests, kill_requests, clients = \
            2, 300, 120, 120, 8

    pool = _build_pool(smoke)
    references = _references(pool)
    # every request on worker-0 stalls: the deterministic gray failure.
    slow_chaos = ChaosSpec(slow_rate=1.0, slow_seconds=_SLOW_SECONDS,
                           workers=("worker-0",))

    with tempfile.TemporaryDirectory(prefix="repro-replication-") as tmp:
        def stores(name: str) -> dict:
            # each phase gets a fresh store hierarchy: later phases must
            # not look fast because an earlier engine populated the disk.
            return dict(local_store_dir=f"{tmp}/{name}/local",
                        shared_store_dir=f"{tmp}/{name}/shared")

        # -- healthy cost: R=1 vs R=2 on the fault-free path ------------ #
        with ClusterEngine(num_workers=num_workers, queue_limit=256,
                           replication_factor=1, hedging=False,
                           **stores("healthy-r1")) as cluster:
            healthy_r1 = _measure_zipf(cluster, pool, references,
                                       num_requests=zipf_requests,
                                       clients=clients)
        with ClusterEngine(num_workers=num_workers, queue_limit=256,
                           replication_factor=2,
                           **stores("healthy-r2")) as cluster:
            healthy_r2 = _measure_zipf(cluster, pool, references,
                                       num_requests=zipf_requests,
                                       clients=clients)
            healthy_r2["warmed"] = sum(
                w.get("warmed", 0) for w in cluster.worker_stats().values())
        healthy_cost = 1.0 - (healthy_r2["throughput_rps"]
                              / healthy_r1["throughput_rps"])

        # -- slow fault: p99 with and without a hedging replica --------- #
        with ClusterEngine(num_workers=num_workers, queue_limit=256,
                           replication_factor=1, hedging=False,
                           chaos=slow_chaos,
                           **stores("slow-r1")) as cluster:
            slow_r1 = _measure_zipf(cluster, pool, references,
                                    num_requests=slow_requests,
                                    clients=clients, rng_seed=3)
        with ClusterEngine(num_workers=num_workers, queue_limit=256,
                           replication_factor=2, hedge_after=_HEDGE_AFTER,
                           chaos=slow_chaos,
                           **stores("slow-r2")) as cluster:
            slow_r2 = _measure_zipf(cluster, pool, references,
                                    num_requests=slow_requests,
                                    clients=clients, rng_seed=3)
            slow_r2_stats = cluster.stats(include_workers=False)
            slow_r2["hedged"] = slow_r2_stats["hedged"]
            slow_r2["hedge_wins"] = slow_r2_stats["hedge_wins"]
        p99_ratio = slow_r1["p99_s"] / max(slow_r2["p99_s"], 1e-9)

        # -- replicated kill: one scripted death must be invisible ------ #
        with ClusterEngine(num_workers=num_workers, queue_limit=256,
                           replication_factor=2, hedge_after=0.2,
                           supervisor_interval=0.05,
                           **stores("kill")) as cluster:
            # warm caches and stores so failover correctness is exercised
            # against warm replicas (the production steady state).
            for entry in pool:
                cluster.solve(entry["matrix"], entry["rhs"],
                              epsilon_l=_EPSILON_L, backend="ideal",
                              kappa=entry["kappa"])
            kill = _measure_kill(cluster, pool, references,
                                 num_requests=kill_requests, clients=clients)

    summary = {
        "smoke": smoke,
        "epsilon_l": _EPSILON_L,
        "zipf_s": _ZIPF_S,
        "num_workers": num_workers,
        "healthy": {"r1": healthy_r1, "r2": healthy_r2,
                    "cost": healthy_cost},
        "slow_fault": {"slow_seconds": _SLOW_SECONDS,
                       "hedge_after": _HEDGE_AFTER,
                       "victim": "worker-0",
                       "r1": slow_r1, "r2": slow_r2,
                       "p99_ratio": p99_ratio},
        "kill": kill,
    }

    text = "\n\n".join([
        format_table(
            [{"R": 1, "req/s": healthy_r1["throughput_rps"],
              "p50 [s]": healthy_r1["p50_s"], "p99 [s]": healthy_r1["p99_s"]},
             {"R": 2, "req/s": healthy_r2["throughput_rps"],
              "p50 [s]": healthy_r2["p50_s"], "p99 [s]": healthy_r2["p99_s"]}],
            title=f"Healthy path ({zipf_requests} requests, Zipf s={_ZIPF_S}; "
                  f"R=2 cost {healthy_cost:+.1%})"),
        format_table(
            [{"R": 1, "hedge": "off", "p99 [s]": slow_r1["p99_s"],
              "p50 [s]": slow_r1["p50_s"]},
             {"R": 2, "hedge": f"{_HEDGE_AFTER}s", "p99 [s]": slow_r2["p99_s"],
              "p50 [s]": slow_r2["p50_s"]}],
            title=f"Gray failure (worker-0 stalls {_SLOW_SECONDS}s/request; "
                  f"p99 ratio {p99_ratio:.1f}x, "
                  f"{slow_r2['hedged']} hedges, "
                  f"{slow_r2['hedge_wins']} wins)"),
        format_table(
            [{"requests": kill["num_requests"],
              "victim": kill["victim"],
              "failures": kill["failures"],
              "degraded": kill["degraded"],
              "failovers": kill["failovers"],
              "hedge wins": kill["hedge_wins"],
              "recovered [s]": kill["recovered_s"],
              "max dev": kill["max_deviation"]}],
            title="Replicated kill (R=2, primary of the hottest system "
                  f"SIGTERMed at {_KILL_FRACTION:.0%} progress)"),
    ])
    if smoke:
        # threshold gate only; never overwrite the full-run artifacts
        emit("replication_smoke", text)
    else:
        _JSON_PATH.write_text(json.dumps(summary, indent=2, default=float)
                              + "\n", encoding="utf-8")
        emit("replication", text + f"\n\nwritten: {_JSON_PATH.name}")
    return summary


def _check(summary: dict) -> list[str]:
    """Acceptance criteria of the replication tentpole; empty = pass."""
    failures = []
    healthy = summary["healthy"]
    slow = summary["slow_fault"]
    kill = summary["kill"]
    if not summary["smoke"] and healthy["cost"] > _MAX_HEALTHY_COST:
        failures.append(f"R=2 costs {healthy['cost']:.1%} of healthy-path "
                        f"throughput (bound {_MAX_HEALTHY_COST:.0%})")
    if slow["p99_ratio"] < _MIN_P99_RATIO:
        failures.append(f"R=2 p99 under the slow fault is only "
                        f"{slow['p99_ratio']:.2f}x better than R=1 "
                        f"(bound {_MIN_P99_RATIO:.1f}x)")
    if slow["r2"]["hedged"] < 1 or slow["r2"]["hedge_wins"] < 1:
        failures.append("no hedge fired/won during the slow-fault phase — "
                        "the p99 ratio is not evidence of hedging")
    if kill["failures"] != 0:
        failures.append(f"{kill['failures']} request(s) failed after retries "
                        f"in the replicated kill phase "
                        f"({kill['failure_types']})")
    if kill["degraded"] != 0:
        failures.append(f"{kill['degraded']} degraded fallback(s) in the "
                        "replicated kill phase — a replica should have "
                        "answered")
    if kill["worker_deaths"] != 1:
        failures.append(f"{kill['worker_deaths']} worker deaths for 1 "
                        "scripted kill")
    if kill["inflight_after_drain"] != 0:
        failures.append(f"{kill['inflight_after_drain']} request(s) still in "
                        "flight after the kill-phase clients drained")
    if kill["recovered_s"] is None:
        failures.append("the killed primary never respawned")
    for phase_name, phase in (("healthy R=1", healthy["r1"]),
                              ("healthy R=2", healthy["r2"]),
                              ("slow R=1", slow["r1"]),
                              ("slow R=2", slow["r2"]),
                              ("kill", kill)):
        if phase["max_deviation"] > _PARITY_TOL:
            failures.append(f"{phase_name} answers deviate by "
                            f"{phase['max_deviation']:.2e} "
                            f"(tolerance {_PARITY_TOL:.0e})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration (the CI regression gate)")
    args = parser.parse_args(argv)
    summary = run_benchmark(smoke=args.smoke)
    healthy = summary["healthy"]
    slow = summary["slow_fault"]
    kill = summary["kill"]
    print(f"healthy: R=1 {healthy['r1']['throughput_rps']:.1f} req/s vs "
          f"R=2 {healthy['r2']['throughput_rps']:.1f} req/s "
          f"(cost {healthy['cost']:+.1%}); slow fault: p99 "
          f"{slow['r1']['p99_s']*1e3:.0f}ms -> {slow['r2']['p99_s']*1e3:.0f}ms "
          f"({slow['p99_ratio']:.1f}x, {slow['r2']['hedged']} hedges); kill: "
          f"{kill['failures']} failures, {kill['degraded']} degraded, "
          f"{kill['failovers']} failovers")
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
