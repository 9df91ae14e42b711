"""Chaos drill — a seeded kill schedule under Zipf traffic, recovery gated.

Replays a deterministic fault schedule against the self-healing serving tier
(:mod:`repro.serving`) and gates on the recovery properties the resilience
layer promises, in two phases:

* **Healthy phase** — the same closed-loop Zipf workload as
  ``bench_serving_cluster.py``, but with the full resilience stack armed
  (supervisor, circuit breakers, redispatch).  Its throughput quantifies the
  cost of supervision on the fault-free path; in full mode it is compared
  against the recorded ``BENCH_serving_cluster.json`` baseline and must stay
  within 5%.
* **Chaos phase** — closed-loop clients solving through a client-side
  :class:`~repro.serving.resilience.RetryPolicy` while a scripted killer
  SIGTERMs the routed owner of the hottest system at fixed progress points
  (a seeded 2-kill schedule).  After each kill the driver measures the time
  until the supervisor has respawned the victim **and** the consistent-hash
  ring's ``arc_shares`` equal the pre-kill placement exactly — recovery to
  *full* capacity, not merely "something answers".

* **Replicated drill** — a 3-worker ``R=2`` fleet whose hottest primary is
  a *gray* failure (every request stalls, the process stays alive and
  heartbeating) and is additionally SIGTERMed mid-run, while a healthy
  sibling is drained and undrained.  Hedged requests rescue the stalled
  primary's traffic within one hedge deadline, the kill fails over to warm
  replicas, and the drain cycle hands arcs over with zero disruption —
  all of it audited against the drill's own event-log timeline
  (``hedge_dispatch``, ``failover``, ``worker_drain`` /
  ``worker_drain_complete`` / ``worker_undrain``, ``worker_death``,
  ``worker_respawn``).

Acceptance gates (the tentpole's contract):

* every request settles — nothing in flight after the clients drain, no
  silent drops;
* >= 99% of requests succeed after retries;
* each kill recovers (ring re-converged, victim respawned) within a bound;
* exactly the scripted deaths occur — a kill must never cascade into
  collateral deaths of healthy siblings;
* non-degraded answers match single-process ground truth to 1e-10;
* the replicated drill sees **zero** degraded fallbacks and **zero**
  post-retry failures, with affected-request p99 bounded by one hedge
  deadline plus a dispatch margin.

Results go to ``benchmarks/results/chaos.txt`` (human-readable) and
``BENCH_chaos.json`` at the repository root (machine-readable).  Run
directly for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_chaos.py --smoke

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

from repro.obs import EventLog
from repro.reporting import format_table
from repro.serving import ChaosSpec, ClusterEngine, HashRing, RetryPolicy
from repro.utils import matrix_fingerprint

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
except ImportError:     # script mode: python benchmarks/bench_chaos.py
    from common import emit
    from bench_serving_cluster import (
        _EPSILON_L,
        _ZIPF_S,
        _build_pool,
        _measure_zipf,
        _references,
        _zipf_weights,
    )

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_JSON_PATH = _ROOT / "BENCH_chaos.json"
_BASELINE_PATH = _ROOT / "BENCH_serving_cluster.json"

#: non-degraded cluster answers must match single-process answers to this.
_PARITY_TOL = 1e-10
#: fraction of chaos-phase requests that must succeed after retries.
_MIN_SUCCESS_RATE = 0.99
#: seconds allowed from SIGTERM to full re-convergence (respawn + ring).
_MAX_RECOVERY_S = 10.0
#: healthy-path throughput may regress at most this much vs the recorded
#: serving-cluster baseline (full mode only; cross-machine JSONs are skipped).
_MAX_HEALTHY_REGRESSION = 0.05
#: progress fractions (of the chaos request count) at which the killer fires.
_KILL_SCHEDULE = (0.25, 0.55)

#: replicated drill: hedge deadline, gray-failure stall, and the progress
#: fractions for the scripted kill and the drain/undrain cycle.
_REPL_HEDGE_AFTER = 0.2
_REPL_SLOW_SECONDS = 2.0
_REPL_KILL_FRACTION = 0.3
_REPL_DRAIN_FRACTION = 0.6
#: an affected request (primary = the stalled/killed worker) must settle
#: within one hedge deadline plus dispatch-and-solve overhead — far below
#: the stall it would otherwise pay.
_REPL_FAILOVER_MARGIN = 1.0


# ---------------------------------------------------------------------- #
# scripted killer
# ---------------------------------------------------------------------- #
class _Killer(threading.Thread):
    """Fires the seeded kill schedule and times each recovery.

    Each scheduled kill waits until client progress crosses its fraction,
    SIGTERMs the *current routed owner of the hottest system* (deterministic
    given the seed: routing is a pure function of fingerprint and the live
    ring), then polls until the victim has respawned and ``arc_shares``
    equal the pre-kill baseline exactly.
    """

    def __init__(self, cluster: ClusterEngine, hottest_matrix,
                 total_requests: int, progress) -> None:
        super().__init__(name="chaos-killer", daemon=True)
        self._cluster = cluster
        self._hottest = hottest_matrix
        self._total = total_requests
        self._progress = progress       # zero-arg callable -> settled count
        self.kills: list[dict] = []
        self.baseline_shares = dict(cluster.stats(
            include_workers=False)["ring"]["arc_shares"])

    def run(self) -> None:
        for fraction in _KILL_SCHEDULE:
            threshold = int(fraction * self._total)
            while self._progress() < threshold:
                time.sleep(0.005)
            victim = self._cluster.route(self._hottest)
            prior_restarts = self._cluster.stats(
                include_workers=False)["restarts"].get(victim, 0)
            killed_at = time.monotonic()
            self._cluster._fleet.workers[victim].process.terminate()
            recovery_s, reconverged = self._await_recovery(
                victim, prior_restarts, killed_at)
            self.kills.append({
                "at_fraction": fraction,
                "at_request": threshold,
                "victim": victim,
                "recovery_s": recovery_s,
                "reconverged": reconverged,
            })

    def _await_recovery(self, victim: str, prior_restarts: int,
                        killed_at: float) -> tuple[float, bool]:
        deadline = killed_at + _MAX_RECOVERY_S + 5.0
        while time.monotonic() < deadline:
            stats = self._cluster.stats(include_workers=False)
            if (stats["restarts"].get(victim, 0) > prior_restarts
                    and stats["ring"]["arc_shares"] == self.baseline_shares):
                return time.monotonic() - killed_at, True
            time.sleep(0.01)
        return time.monotonic() - killed_at, False


# ---------------------------------------------------------------------- #
# chaos phase: retrying closed-loop clients + the killer
# ---------------------------------------------------------------------- #
def _measure_chaos(cluster: ClusterEngine, pool: list[dict],
                   references: list[np.ndarray], *, num_requests: int,
                   clients: int, rng_seed: int = 2) -> dict:
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
    retries = [0] * clients
    failures: list[str] = []

    killer = _Killer(cluster, pool[0]["matrix"], num_requests,
                     lambda: settled["n"])

    def client(index: int, indices) -> None:
        # one policy per client: retries are the client's own backoff state.
        policy = RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.5,
                             rng=1000 + index)
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
        retries[index] = policy.stats()["retries"]

    threads = [threading.Thread(target=client, args=(i, partition))
               for i, partition in enumerate(partitions)]
    start = time.perf_counter()
    killer.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_time = time.perf_counter() - start
    killer.join(timeout=_MAX_RECOVERY_S + 10.0)

    stats = cluster.stats(include_workers=False)
    total_success = sum(successes)

    # span-tree completeness (the drill runs at sample rate 1.0): every
    # admitted request still in the ring — ok, degraded, redispatched or
    # failed — must carry the structural front-end spans.  Shed requests
    # never pass admission, so "route" alone is their complete tree.
    tracer = cluster.observability.tracer
    incomplete_traces = 0
    for trace_id in tracer.buffer.trace_ids():
        record = tracer.buffer.get(trace_id)
        if record["status"] == "shed":
            continue
        names = set(span["name"] for span in record["spans"])
        if not {"route", "admit"} <= names:
            incomplete_traces += 1

    return {
        "num_requests": num_requests,
        "clients": clients,
        "zipf_s": _ZIPF_S,
        "rng_seed": rng_seed,
        "kill_schedule": list(_KILL_SCHEDULE),
        "kills": killer.kills,
        "wall_time_s": wall_time,
        "throughput_rps": num_requests / wall_time,
        "successes": total_success,
        "failures": len(failures),
        "failure_types": sorted(set(failures)),
        "success_rate": total_success / num_requests,
        "client_retries": sum(retries),
        "degraded": sum(degraded),
        "max_deviation": max(deviations),
        "inflight_after_drain": stats["inflight"],
        "worker_deaths": stats["worker_deaths"],
        "restarts": stats["restarts"],
        "redispatched": stats["redispatched"],
        "workers_alive_after": stats["workers_alive"],
        "supervisor": stats["supervisor"],
        "trace": stats["obs"]["trace"],
        "incomplete_traces": incomplete_traces,
    }


# ---------------------------------------------------------------------- #
# replicated drill: R=2 ownership must make one death invisible
# ---------------------------------------------------------------------- #
def _measure_replicated(cluster: ClusterEngine, pool: list[dict],
                        references: list[np.ndarray], *, victim: str,
                        primaries: list[str], num_requests: int,
                        clients: int, rng_seed: int = 5) -> dict:
    """Zipf traffic against an R=2 fleet whose ``victim`` worker stalls
    every request (gray failure), is SIGTERMed mid-run, while another
    worker is drained and undrained — replication must absorb all of it:
    zero degraded fallbacks, zero post-retry failures, and every affected
    request rescued by its hedge within about one hedge deadline.
    """
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
    latencies: list[list[tuple[int, float]]] = [[] for _ in range(clients)]
    failures: list[str] = []
    ops = {"kill_recovered_s": None, "drained": None, "undrained": None}

    def driver() -> None:
        kill_at = int(_REPL_KILL_FRACTION * num_requests)
        while settled["n"] < kill_at:
            time.sleep(0.005)
        prior = cluster.stats(include_workers=False)["restarts"].get(victim, 0)
        killed_at = time.monotonic()
        cluster._fleet.workers[victim].process.terminate()
        while time.monotonic() < killed_at + 15.0:
            if cluster.stats(include_workers=False)["restarts"] \
                    .get(victim, 0) > prior:
                ops["kill_recovered_s"] = time.monotonic() - killed_at
                break
            time.sleep(0.01)
        drain_at = int(_REPL_DRAIN_FRACTION * num_requests)
        while settled["n"] < drain_at:
            time.sleep(0.005)
        target = next(w for w in sorted(cluster.workers_alive)
                      if w != victim)
        ops["drained"] = cluster.drain(target, timeout=10.0)
        time.sleep(0.1)
        ops["undrained"] = cluster.undrain(target)

    def client(index: int, indices) -> None:
        policy = RetryPolicy(max_attempts=6, base_delay=0.02, max_delay=0.5,
                             rng=2000 + index)
        for pool_index in indices:
            entry = pool[pool_index]
            start = time.perf_counter()
            try:
                record = policy.execute(
                    cluster.solve, entry["matrix"], entry["rhs"],
                    epsilon_l=_EPSILON_L, backend="ideal",
                    kappa=entry["kappa"])
            except BaseException as exc:  # noqa: BLE001 - typed, counted
                failures.append(type(exc).__name__)
            else:
                successes[index] += 1
                latencies[index].append((int(pool_index),
                                         time.perf_counter() - start))
                if record.degraded:
                    degraded[index] += 1
                else:
                    deviations[index] = max(deviations[index], float(
                        np.max(np.abs(record.x - references[pool_index]))))
            finally:
                with count_lock:
                    settled["n"] += 1

    driver_thread = threading.Thread(target=driver, name="replicated-driver",
                                     daemon=True)
    threads = [threading.Thread(target=client, args=(i, partition))
               for i, partition in enumerate(partitions)]
    start = time.perf_counter()
    driver_thread.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_time = time.perf_counter() - start
    driver_thread.join(timeout=30.0)

    affected = [latency for chunk in latencies
                for pool_index, latency in chunk
                if primaries[pool_index] == victim]
    healthy = [latency for chunk in latencies
               for pool_index, latency in chunk
               if primaries[pool_index] != victim]
    stats = cluster.stats(include_workers=False)
    return {
        "num_requests": num_requests,
        "clients": clients,
        "victim": victim,
        "hedge_after": _REPL_HEDGE_AFTER,
        "slow_seconds": _REPL_SLOW_SECONDS,
        "kill_fraction": _REPL_KILL_FRACTION,
        "drain_fraction": _REPL_DRAIN_FRACTION,
        "kill_recovered_s": ops["kill_recovered_s"],
        "drained": ops["drained"],
        "undrained": ops["undrained"],
        "wall_time_s": wall_time,
        "successes": sum(successes),
        "failures": len(failures),
        "failure_types": sorted(set(failures)),
        "degraded": sum(degraded),
        "max_deviation": max(deviations),
        "affected_requests": len(affected),
        "affected_p99_s": (float(np.percentile(affected, 99))
                           if affected else None),
        "healthy_p99_s": (float(np.percentile(healthy, 99))
                          if healthy else None),
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
        num_workers, healthy_requests, chaos_requests, clients = 2, 40, 60, 4
        replicated_requests = 60
    else:
        num_workers, healthy_requests, chaos_requests, clients = 2, 400, 300, 8
        replicated_requests = 240

    pool = _build_pool(smoke)
    references = _references(pool)
    # hedging off for the legacy phases: they measure pure primary dispatch
    # (and compare against a pre-replication baseline); the replicated
    # drill below exercises R=2 + hedging explicitly.
    resilience_config = dict(
        num_workers=num_workers, queue_limit=256,
        respawn=True, supervisor_interval=0.05, hedging=False)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        # tiered store directories make every respawn a *warm* restore —
        # the new incarnation reloads compiled solvers instead of
        # re-synthesising, which is what keeps recovery inside the bound.
        stores = dict(local_store_dir=f"{tmp}/local",
                      shared_store_dir=f"{tmp}/shared")

        with ClusterEngine(**resilience_config, **stores) as cluster:
            healthy = _measure_zipf(cluster, pool, references,
                                    num_requests=healthy_requests,
                                    clients=clients)

        # the drill itself runs fully observed: every request traced
        # (sample rate 1.0) and every lifecycle event — death, redispatch,
        # respawn — appended to a shared JSONL the drill audits afterwards.
        event_path = f"{tmp}/events.jsonl"
        with ClusterEngine(**resilience_config, **stores,
                           trace_sample_rate=1.0,
                           event_log_path=event_path) as cluster:
            # warm both the per-worker caches and the store hierarchy, so
            # kill latency measures recovery, not first-touch synthesis.
            for entry, reference in zip(pool, references):
                record = cluster.solve(entry["matrix"], entry["rhs"],
                                       epsilon_l=_EPSILON_L, backend="ideal",
                                       kappa=entry["kappa"])
                deviation = float(np.max(np.abs(record.x - reference)))
                if deviation > _PARITY_TOL:
                    raise RuntimeError(f"warmup deviates by {deviation:.2e}")
            chaos = _measure_chaos(cluster, pool, references,
                                   num_requests=chaos_requests,
                                   clients=clients)

        # post-hoc timeline: the event log is the drill's audit trail, read
        # back from disk after the engine (and its workers) closed.
        records = EventLog.read_file(event_path)
        kind_counts: dict[str, int] = {}
        for record in records:
            kind_counts[record["kind"]] = kind_counts.get(record["kind"], 0) + 1
        chaos["timeline"] = {
            "events": len(records),
            "kinds": kind_counts,
            "deaths": [{"worker": r.get("worker"),
                        "incarnation": r.get("incarnation")}
                       for r in records if r["kind"] == "worker_death"],
            "respawns": [{"worker": r.get("worker"),
                          "incarnation": r.get("incarnation")}
                         for r in records if r["kind"] == "worker_respawn"],
        }

        # replicated drill: a 3-worker R=2 fleet whose hottest primary is
        # both gray (stalls every request) and killed mid-run, with a
        # drain/undrain cycle on a sibling — its own event timeline.
        repl_workers = 3
        repl_ring = HashRing([f"worker-{i}" for i in range(repl_workers)])
        primaries = [repl_ring.route(matrix_fingerprint(entry["matrix"]))
                     for entry in pool]
        repl_victim = primaries[0]
        repl_event_path = f"{tmp}/replicated-events.jsonl"
        slow = ChaosSpec(slow_rate=1.0, slow_seconds=_REPL_SLOW_SECONDS,
                         workers=(repl_victim,))
        with ClusterEngine(num_workers=repl_workers, queue_limit=256,
                           replication_factor=2,
                           hedge_after=_REPL_HEDGE_AFTER,
                           supervisor_interval=0.05, chaos=slow,
                           event_log_path=repl_event_path,
                           local_store_dir=f"{tmp}/repl-local",
                           shared_store_dir=f"{tmp}/repl-shared") as cluster:
            # warm every fingerprint first (the victim's systems arrive via
            # their hedges), so the measured drill sees steady-state warm
            # replicas — affected p99 then isolates failover latency, not
            # first-touch synthesis.
            for entry in pool:
                cluster.solve(entry["matrix"], entry["rhs"],
                              epsilon_l=_EPSILON_L, backend="ideal",
                              kappa=entry["kappa"])
            replicated = _measure_replicated(
                cluster, pool, references, victim=repl_victim,
                primaries=primaries, num_requests=replicated_requests,
                clients=clients)
        repl_records = EventLog.read_file(repl_event_path)
        repl_kinds: dict[str, int] = {}
        for record in repl_records:
            repl_kinds[record["kind"]] = repl_kinds.get(record["kind"], 0) + 1
        replicated["timeline"] = {"events": len(repl_records),
                                  "kinds": repl_kinds}

    baseline_rps = None
    regression = None
    if not smoke and _BASELINE_PATH.exists():
        baseline = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
        baseline_rps = float(baseline["zipf"]["throughput_rps"])
        regression = 1.0 - healthy["throughput_rps"] / baseline_rps

    summary = {
        "smoke": smoke,
        "epsilon_l": _EPSILON_L,
        "num_workers": num_workers,
        "healthy": healthy,
        "chaos": chaos,
        "replicated": replicated,
        "baseline_rps": baseline_rps,
        "healthy_regression": regression,
    }

    kill_rows = [{"at": f"{k['at_fraction']:.0%}", "victim": k["victim"],
                  "recovery [s]": k["recovery_s"],
                  "reconverged": k["reconverged"]}
                 for k in chaos["kills"]]
    text = "\n\n".join([
        format_table(
            [{"workers": healthy["workers"],
              "requests": healthy["num_requests"],
              "req/s": healthy["throughput_rps"],
              "p99 [s]": healthy["p99_s"],
              "baseline req/s": baseline_rps if baseline_rps else "n/a",
              "regression": (f"{regression:+.1%}" if regression is not None
                             else "n/a")}],
            title="Healthy path (full resilience stack armed, no faults)"),
        format_table(kill_rows or [{"at": "-", "victim": "-",
                                    "recovery [s]": 0.0,
                                    "reconverged": False}],
                     title=f"Seeded kill schedule (Zipf s={_ZIPF_S}, "
                           f"seed={chaos['rng_seed']})"),
        format_table(
            [{"requests": chaos["num_requests"],
              "success": f"{chaos['success_rate']:.2%}",
              "retries": chaos["client_retries"],
              "redispatched": chaos["redispatched"],
              "degraded": chaos["degraded"],
              "deaths": chaos["worker_deaths"],
              "max dev": chaos["max_deviation"]}],
            title="Chaos traffic (closed loop through RetryPolicy clients)"),
        format_table(
            [{"kind": kind, "count": count}
             for kind, count in sorted(chaos["timeline"]["kinds"].items())],
            title="Event-log timeline (shared JSONL, read back post-drill)")
        + (f"\n\ntraces: {chaos['trace']['finished']} finished at sample "
           f"rate {chaos['trace']['sample_rate']}, "
           f"{chaos['incomplete_traces']} incomplete"),
        format_table(
            [{"requests": replicated["num_requests"],
              "victim": replicated["victim"],
              "failures": replicated["failures"],
              "degraded": replicated["degraded"],
              "hedge wins": replicated["hedge_wins"],
              "failovers": replicated["failovers"],
              "affected p99 [s]": replicated["affected_p99_s"],
              "recovered [s]": replicated["kill_recovered_s"]}],
            title=f"Replicated drill (R=2, {replicated['victim']} stalls "
                  f"{_REPL_SLOW_SECONDS}s/request, killed at "
                  f"{_REPL_KILL_FRACTION:.0%}, sibling drained at "
                  f"{_REPL_DRAIN_FRACTION:.0%})"),
        format_table(
            [{"kind": kind, "count": count}
             for kind, count in sorted(
                 replicated["timeline"]["kinds"].items())],
            title="Replicated-drill timeline"),
    ])
    if smoke:
        # threshold gate only; never overwrite the full-run artifacts
        emit("chaos_smoke", text)
    else:
        _JSON_PATH.write_text(json.dumps(summary, indent=2, default=float)
                              + "\n", encoding="utf-8")
        emit("chaos", text + f"\n\nwritten: {_JSON_PATH.name}")
    return summary


def _check(summary: dict) -> list[str]:
    """Acceptance criteria of the resilience tentpole; empty = pass."""
    failures = []
    chaos = summary["chaos"]
    if chaos["inflight_after_drain"] != 0:
        failures.append(f"{chaos['inflight_after_drain']} request(s) still "
                        "in flight after the clients drained (silent drop)")
    if chaos["successes"] + chaos["failures"] != chaos["num_requests"]:
        failures.append("request accounting does not balance: "
                        f"{chaos['successes']} + {chaos['failures']} != "
                        f"{chaos['num_requests']}")
    if chaos["success_rate"] < _MIN_SUCCESS_RATE:
        failures.append(f"success rate {chaos['success_rate']:.2%} after "
                        f"retries is below {_MIN_SUCCESS_RATE:.0%} "
                        f"(failure types: {chaos['failure_types']})")
    if len(chaos["kills"]) != len(_KILL_SCHEDULE):
        failures.append(f"killer fired {len(chaos['kills'])} of "
                        f"{len(_KILL_SCHEDULE)} scheduled kills")
    for kill in chaos["kills"]:
        if not kill["reconverged"]:
            failures.append(f"ring never re-converged after killing "
                            f"{kill['victim']} at {kill['at_fraction']:.0%}")
        elif kill["recovery_s"] > _MAX_RECOVERY_S:
            failures.append(f"recovery after killing {kill['victim']} took "
                            f"{kill['recovery_s']:.2f}s "
                            f"(bound {_MAX_RECOVERY_S}s)")
    if chaos["worker_deaths"] != len(_KILL_SCHEDULE):
        failures.append(f"{chaos['worker_deaths']} worker deaths for "
                        f"{len(_KILL_SCHEDULE)} scripted kills — a kill "
                        "cascaded into collateral deaths")
    if chaos["workers_alive_after"] != summary["num_workers"]:
        failures.append(f"only {chaos['workers_alive_after']} of "
                        f"{summary['num_workers']} workers on the ring after "
                        "the drill")
    if chaos["max_deviation"] > _PARITY_TOL:
        failures.append(f"non-degraded chaos answers deviate by "
                        f"{chaos['max_deviation']:.2e} "
                        f"(tolerance {_PARITY_TOL:.0e})")
    if summary["healthy"]["max_deviation"] > _PARITY_TOL:
        failures.append(f"healthy-path answers deviate by "
                        f"{summary['healthy']['max_deviation']:.2e}")
    timeline = chaos["timeline"]
    kinds = timeline["kinds"]
    if kinds.get("worker_death", 0) != len(_KILL_SCHEDULE):
        failures.append(f"event log recorded {kinds.get('worker_death', 0)} "
                        f"worker_death events for {len(_KILL_SCHEDULE)} "
                        "scripted kills")
    if kinds.get("worker_respawn", 0) < len(_KILL_SCHEDULE):
        failures.append(f"event log recorded only "
                        f"{kinds.get('worker_respawn', 0)} worker_respawn "
                        f"events for {len(_KILL_SCHEDULE)} kills")
    for kill in chaos["kills"]:
        if not any(r["worker"] == kill["victim"]
                   for r in timeline["respawns"]):
            failures.append(f"no worker_respawn event for killed victim "
                            f"{kill['victim']} in the timeline")
    if chaos["trace"]["finished"] < chaos["num_requests"]:
        failures.append(f"only {chaos['trace']['finished']} traces finished "
                        f"for {chaos['num_requests']} requests — the drill "
                        "runs at sample rate 1.0 and must trace everything")
    if chaos["incomplete_traces"] > 0:
        failures.append(f"{chaos['incomplete_traces']} admitted request(s) "
                        "settled without the structural route/admit spans")
    regression = summary["healthy_regression"]
    if regression is not None and regression > _MAX_HEALTHY_REGRESSION:
        failures.append(f"healthy-path throughput regressed "
                        f"{regression:.1%} vs BENCH_serving_cluster.json "
                        f"(bound {_MAX_HEALTHY_REGRESSION:.0%})")

    # replicated drill: one death + one gray worker + a drain cycle, all
    # invisible to clients.
    replicated = summary["replicated"]
    if replicated["failures"] != 0:
        failures.append(f"replicated drill: {replicated['failures']} "
                        f"request(s) failed after retries "
                        f"({replicated['failure_types']})")
    if replicated["degraded"] != 0:
        failures.append(f"replicated drill: {replicated['degraded']} "
                        "degraded fallback(s) — a replica should have "
                        "answered")
    if replicated["worker_deaths"] != 1:
        failures.append(f"replicated drill: {replicated['worker_deaths']} "
                        "worker deaths for 1 scripted kill")
    if replicated["kill_recovered_s"] is None:
        failures.append("replicated drill: the killed primary never "
                        "respawned")
    if replicated["hedged"] < 1 or replicated["hedge_wins"] < 1:
        failures.append("replicated drill: no hedge fired/won against the "
                        "stalled primary")
    if replicated["failovers"] < 1:
        failures.append("replicated drill: the kill produced no failover")
    if not replicated["drained"] or not replicated["undrained"]:
        failures.append("replicated drill: the drain/undrain cycle did not "
                        f"complete (drained={replicated['drained']}, "
                        f"undrained={replicated['undrained']})")
    if replicated["inflight_after_drain"] != 0:
        failures.append(f"replicated drill: "
                        f"{replicated['inflight_after_drain']} request(s) "
                        "still in flight after the clients drained")
    if replicated["max_deviation"] > _PARITY_TOL:
        failures.append(f"replicated drill: non-degraded answers deviate by "
                        f"{replicated['max_deviation']:.2e}")
    affected_p99 = replicated["affected_p99_s"]
    if affected_p99 is None:
        failures.append("replicated drill: no request hit the stalled "
                        "primary — the drill exercised nothing")
    elif affected_p99 > _REPL_HEDGE_AFTER + _REPL_FAILOVER_MARGIN:
        failures.append(f"replicated drill: affected p99 "
                        f"{affected_p99:.2f}s exceeds one hedge deadline "
                        f"({_REPL_HEDGE_AFTER}s) + margin "
                        f"({_REPL_FAILOVER_MARGIN}s) — failover is not "
                        "bounded by the hedge")
    repl_kinds = replicated["timeline"]["kinds"]
    for kind in ("hedge_dispatch", "worker_drain", "worker_drain_complete",
                 "worker_undrain", "worker_death", "worker_respawn"):
        if repl_kinds.get(kind, 0) < 1:
            failures.append(f"replicated drill timeline is missing "
                            f"{kind!r} events")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration (the CI regression gate)")
    args = parser.parse_args(argv)
    summary = run_benchmark(smoke=args.smoke)
    chaos = summary["chaos"]
    recoveries = ", ".join(f"{k['victim']}@{k['at_fraction']:.0%}:"
                           f"{k['recovery_s']:.2f}s"
                           for k in chaos["kills"]) or "none"
    replicated = summary["replicated"]
    print(f"healthy: {summary['healthy']['throughput_rps']:.1f} req/s; "
          f"chaos: {chaos['success_rate']:.2%} success over "
          f"{chaos['num_requests']} requests with {chaos['worker_deaths']} "
          f"scripted deaths ({chaos['client_retries']} retries, "
          f"{chaos['redispatched']} redispatched, "
          f"{chaos['degraded']} degraded), recoveries: {recoveries}; "
          f"replicated: {replicated['failures']} failures, "
          f"{replicated['degraded']} degraded, "
          f"{replicated['hedge_wins']} hedge wins, affected p99 "
          f"{replicated['affected_p99_s']}")
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
