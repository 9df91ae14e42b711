"""Observability overhead — the Zipf serving workload at three sample rates.

Quantifies what the :mod:`repro.obs` layer costs on the hot path by running
the same closed-loop Zipf workload as ``bench_serving_cluster.py`` against
three otherwise-identical clusters:

* ``rate 0.0`` — tracing off.  :meth:`Tracer.start` returns ``None`` so the
  request path skips every trace touch; this is the zero-overhead contract,
  and in full mode its throughput/p50 are gated within 5% of the recorded
  ``BENCH_serving_cluster.json`` baseline (which ran without the knob at
  all).
* ``rate 0.1`` — production-style sampling.  Every request carries a
  trace_id, the deterministic :func:`trace_is_sampled` fraction records
  spans.
* ``rate 1.0`` — everything traced.  Every settled request must land in the
  ring with a complete span tree (route, admit, queue-wait, coalesce,
  sweep); the relative overhead vs rate 0 is recorded.

The metrics registry is on throughout (its cost rides along in every
phase): each run also cross-checks the merged cluster snapshot — the
``repro_cluster_requests_total`` completed-series must equal the request
count —
and that the Prometheus rendering carries the merged latency summary.

Results go to ``benchmarks/results/obs.txt`` (human-readable) and
``BENCH_obs.json`` at the repository root (machine-readable).  Run
directly for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_obs.py --smoke

which exits non-zero when any acceptance criterion regresses.
"""

import argparse
import json
import pathlib
import sys

from repro.serving import ClusterEngine
from repro.reporting import format_table

try:
    from .common import emit
    from .bench_serving_cluster import (
        _EQUALITY_TOL,
        _build_pool,
        _measure_zipf,
        _references,
    )
except ImportError:     # script mode: python benchmarks/bench_obs.py
    from common import emit
    from bench_serving_cluster import (
        _EQUALITY_TOL,
        _build_pool,
        _measure_zipf,
        _references,
    )

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_JSON_PATH = _ROOT / "BENCH_obs.json"
_BASELINE_PATH = _ROOT / "BENCH_serving_cluster.json"

#: the three sample rates the acceptance criteria name.
_SAMPLE_RATES = (0.0, 0.1, 1.0)
#: spans every fully-traced request must carry (refinement/store spans are
#: conditional; these five are structural).
_REQUIRED_SPANS = frozenset(
    {"route", "admit", "queue_wait", "coalesce", "sweep"})
#: rate-0 throughput may regress at most this much vs the recorded
#: serving-cluster baseline (full mode only; cross-machine JSONs are skipped).
_MAX_DISABLED_REGRESSION = 0.05
#: at rate 0.1, the sampled fraction must land in this band (full mode; the
#: trace ids are uuid4 draws, so this is ~8 sigma of Binomial(400, 0.1)).
_PARTIAL_BAND = (0.03, 0.25)


def _counter_sum(merged: dict, name: str, **labels) -> float:
    """Sum one counter family's series matching ``labels`` (subset match)."""
    family = merged.get(name)
    if not family:
        return 0.0
    want = set((str(k), str(v)) for k, v in labels.items())
    return float(sum(value for key, value in family["series"].items()
                     if want <= set(key)))


def _measure_rate(rate: float, pool, references, *, num_requests: int,
                  clients: int, num_workers: int) -> dict:
    with ClusterEngine(num_workers=num_workers, queue_limit=256,
                       trace_sample_rate=rate,
                       event_log_path=False) as cluster:
        zipf = _measure_zipf(cluster, pool, references,
                             num_requests=num_requests, clients=clients)
        tracer = cluster.observability.tracer
        trace_stats = tracer.stats()

        # span-tree completeness over everything the ring holds: at rate 1.0
        # that is every settled request (capacity outlives the run).
        incomplete = 0
        for trace_id in tracer.buffer.trace_ids():
            record = tracer.buffer.get(trace_id)
            names = set(span["name"] for span in record["spans"])
            if not _REQUIRED_SPANS <= names:
                incomplete += 1

        merged = cluster.metrics_snapshot()
        prometheus = cluster.prometheus_metrics()
    return {
        "sample_rate": rate,
        "num_requests": num_requests,
        "clients": clients,
        "throughput_rps": zipf["throughput_rps"],
        "p50_s": zipf["p50_s"],
        "p99_s": zipf["p99_s"],
        "max_deviation": zipf["max_deviation"],
        "traced": trace_stats["finished"],
        "stored": trace_stats["stored"],
        "evicted": trace_stats["evicted"],
        "sampled_fraction": trace_stats["finished"] / num_requests,
        "incomplete_traces": incomplete,
        "metrics_completed_requests": _counter_sum(
            merged, "repro_cluster_requests_total", outcome="completed"),
        "metrics_families": len(merged),
        "prometheus_has_latency": "repro_cluster_latency_seconds" in prometheus,
    }


# ---------------------------------------------------------------------- #
def run_benchmark(*, smoke: bool = False) -> dict:
    if smoke:
        num_workers, num_requests, clients = 2, 40, 2
    else:
        # full mode mirrors the serving-cluster Zipf phase exactly, so the
        # rate-0 run is an apples-to-apples read of the recorded baseline.
        num_workers, num_requests, clients = 2, 400, 8

    pool = _build_pool(smoke)
    references = _references(pool)

    rates = [_measure_rate(rate, pool, references,
                           num_requests=num_requests, clients=clients,
                           num_workers=num_workers)
             for rate in _SAMPLE_RATES]

    disabled = rates[0]
    for entry in rates:
        entry["overhead_vs_disabled"] = (
            1.0 - entry["throughput_rps"] / disabled["throughput_rps"])

    baseline_rps = None
    disabled_regression = None
    if not smoke and _BASELINE_PATH.exists():
        baseline = json.loads(_BASELINE_PATH.read_text(encoding="utf-8"))
        baseline_rps = float(baseline["zipf"]["throughput_rps"])
        disabled_regression = 1.0 - disabled["throughput_rps"] / baseline_rps

    summary = {
        "smoke": smoke,
        "num_workers": num_workers,
        "rates": rates,
        "baseline_rps": baseline_rps,
        "disabled_regression": disabled_regression,
    }

    text = format_table(
        [{"rate": entry["sample_rate"],
          "req/s": entry["throughput_rps"],
          "p50 [ms]": entry["p50_s"] * 1e3,
          "p99 [ms]": entry["p99_s"] * 1e3,
          "overhead": f"{entry['overhead_vs_disabled']:+.1%}",
          "traced": entry["traced"],
          "incomplete": entry["incomplete_traces"]}
         for entry in rates],
        title=(f"Tracing overhead on the Zipf serving workload "
               f"({num_requests} requests, {clients} clients, "
               f"{num_workers} workers; metrics registry on throughout)"))
    if baseline_rps is not None:
        text += (f"\n\nrate-0 vs BENCH_serving_cluster.json: "
                 f"{disabled_regression:+.1%} "
                 f"(baseline {baseline_rps:.1f} req/s)")
    if smoke:
        # threshold gate only; never overwrite the full-run artifacts
        emit("obs_smoke", text)
    else:
        _JSON_PATH.write_text(json.dumps(summary, indent=2, default=float)
                              + "\n", encoding="utf-8")
        emit("obs", text + f"\n\nwritten: {_JSON_PATH.name}")
    return summary


def _check(summary: dict) -> list[str]:
    """Acceptance criteria of the observability tentpole; empty = pass."""
    failures = []
    by_rate = {entry["sample_rate"]: entry for entry in summary["rates"]}
    for entry in summary["rates"]:
        if entry["max_deviation"] > _EQUALITY_TOL:
            failures.append(f"rate {entry['sample_rate']}: answers deviate "
                            f"by {entry['max_deviation']:.2e} — "
                            "instrumentation must not perturb results")
        if entry["metrics_completed_requests"] < entry["num_requests"]:
            failures.append(f"rate {entry['sample_rate']}: merged metrics "
                            f"count {entry['metrics_completed_requests']:.0f} "
                            f"completed requests of "
                            f"{entry['num_requests']} served")
        if not entry["prometheus_has_latency"]:
            failures.append(f"rate {entry['sample_rate']}: Prometheus "
                            "rendering lacks the cluster latency summary")
    disabled, full = by_rate[0.0], by_rate[1.0]
    if disabled["traced"] != 0:
        failures.append(f"rate 0.0 recorded {disabled['traced']} traces; "
                        "disabled tracing must touch nothing")
    if full["traced"] < full["num_requests"]:
        failures.append(f"rate 1.0 finished only {full['traced']} traces "
                        f"for {full['num_requests']} requests")
    if full["incomplete_traces"] > 0:
        failures.append(f"rate 1.0: {full['incomplete_traces']} trace(s) "
                        f"missing structural spans {sorted(_REQUIRED_SPANS)}")
    partial = by_rate[0.1]
    if partial["traced"] > partial["num_requests"]:
        failures.append(f"rate 0.1 recorded {partial['traced']} traces for "
                        f"{partial['num_requests']} requests")
    if not summary["smoke"]:
        low, high = _PARTIAL_BAND
        if not (low <= partial["sampled_fraction"] <= high):
            failures.append(f"rate 0.1 sampled "
                            f"{partial['sampled_fraction']:.1%} of requests "
                            f"(expected {low:.0%}..{high:.0%})")
        regression = summary["disabled_regression"]
        if regression is not None and regression > _MAX_DISABLED_REGRESSION:
            failures.append(f"disabled-tracing throughput regressed "
                            f"{regression:.1%} vs BENCH_serving_cluster.json "
                            f"(bound {_MAX_DISABLED_REGRESSION:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration (the CI regression gate)")
    args = parser.parse_args(argv)
    summary = run_benchmark(smoke=args.smoke)
    print("; ".join(
        f"rate {entry['sample_rate']}: {entry['throughput_rps']:.1f} req/s "
        f"({entry['overhead_vs_disabled']:+.1%}, {entry['traced']} traced)"
        for entry in summary["rates"]))
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
