"""Problem suite + autotuner — per-family throughput, chain reuse, tuned ε_l.

Exercises the :mod:`repro.problems` workload families end-to-end through the
engine and measures the three claims of the subsystem:

* **family throughput** — every registered family builds through
  ``build_scenario`` and runs through ``ScenarioRunner``; per-family
  jobs/sec, compiled-solver cache hit rate and the maximum forward error
  against each workload's classically computed exact solution;
* **time-stepping reuse** — a heat-equation chain of ``T`` implicit-Euler
  steps against one fixed operator performs exactly **one** synthesis: the
  compiled-solver cache hit rate in ``RunReport.summary`` is ``(T-1)/T``;
* **adaptive autotuning** — per-family ε_l from the
  :class:`~repro.engine.autotune.Autotuner` (cost-model seed, then
  telemetry-driven hill climb) versus a fixed one-size-fits-all ε_l that a
  static deployment would have to provision for its worst-conditioned
  family.  The first (pure cost-model) choice must equal
  :func:`repro.core.cost_model.optimal_epsilon_l` on the Poisson family,
  and the adapted configurations must beat the fixed baseline on total
  measured block-encoding calls over the workload stream.

Results go to ``benchmarks/results/problems.txt`` and — full runs only — to
``BENCH_problems.json`` at the repository root.  Run directly for the CI
smoke gate::

    PYTHONPATH=src python benchmarks/bench_problems.py --smoke
"""

import argparse
import json
import pathlib
import sys
import tempfile
import time
from dataclasses import replace

import numpy as np

from repro.core.cost_model import optimal_epsilon_l
from repro.engine import Autotuner, ScenarioRunner, build_scenario
from repro.problems import PROBLEM_FAMILIES, workload_jobs
from repro.reporting import format_table

try:
    from .common import emit
except ImportError:          # script mode: python benchmarks/bench_problems.py
    from common import emit

_TARGET = 1e-8
#: one-size-fits-all baseline ε_l: the largest value that keeps the
#: Theorem III.1 contraction ε_l κ < 1 safe for every family in the stream
#: (worst κ ≈ 117 for the N=16 1-D Poisson member).
_FIXED_EPSILON_L = 1e-3
#: forward-error ceiling against the classical exact solutions (κ·ε ≈ 1e-6
#: for the worst family; an order of magnitude of slack on top).
_MAX_FORWARD_ERROR = 1e-4
#: required aggregate advantage of adapted ε_l over the fixed baseline.
_MIN_AUTOTUNE_ADVANTAGE = 1.05
_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_problems.json"


def _family_configs(smoke: bool) -> list[tuple[str, dict]]:
    """Per-family build parameters (kept quantum-sized: N a power of two)."""
    rhs = 2 if smoke else 8
    return [
        ("poisson-2d", {"num_rhs": rhs}),
        ("poisson-3d", {"num_rhs": rhs}),
        ("heat-chain", {"num_steps": 16}),
        ("convection-diffusion", {"num_rhs": rhs}),
        ("helmholtz", {"num_rhs": rhs}),
        ("graph-laplacian", {"num_rhs": rhs}),
        ("graph-laplacian", {"topology": "random-regular", "num_rhs": rhs}),
        ("prescribed-spectrum", {"num_rhs": rhs}),
    ]


def _forward_error(results, workloads) -> float:
    """Max relative forward error of the solves against the exact solutions."""
    worst = 0.0
    for result, workload in zip(results, workloads):
        error = (np.linalg.norm(result.x - workload.solution)
                 / np.linalg.norm(workload.solution))
        worst = max(worst, float(error))
    return worst


# ---------------------------------------------------------------------- #
# (1) per-family throughput + correctness
# ---------------------------------------------------------------------- #
def _measure_family(name: str, params: dict) -> dict:
    # build the workloads once and wrap them: the solves are validated
    # against exactly the solutions generated here, with no reliance on a
    # second generation pass being bit-identical
    workloads = PROBLEM_FAMILIES[name].workloads(**params)
    jobs = workload_jobs(workloads, target_accuracy=_TARGET, backend="ideal",
                         family=name)
    runner = ScenarioRunner(mode="serial")
    start = time.perf_counter()
    report = runner.run(jobs)
    wall = time.perf_counter() - start
    failed = [r.error for r in report if not r.ok]
    if failed:
        raise RuntimeError(f"{name} jobs failed: {failed}")
    cache = report.summary["cache"]
    label = name if "topology" not in params else f"{name}:{params['topology']}"
    return {
        "family": label,
        "jobs": len(report),
        "dimension": int(workloads[0].dimension),
        "kappa": float(jobs[0].kappa),
        "epsilon_l": float(jobs[0].epsilon_l),
        "wall_time_s": wall,
        "jobs_per_sec": len(report) / wall if wall > 0 else 0.0,
        "cache_hit_rate": cache["hit_rate"],
        "compiles": cache["compiles"],
        "converged": all(r.converged for r in report),
        "max_forward_error": _forward_error(report, workloads),
        "total_block_encoding_calls": int(sum(r.block_encoding_calls
                                              for r in report)),
    }


# ---------------------------------------------------------------------- #
# (2) heat-chain reuse: one synthesis for T steps
# ---------------------------------------------------------------------- #
def _measure_chain(num_steps: int) -> dict:
    chain = PROBLEM_FAMILIES["heat-chain"].chain(num_steps=num_steps)
    workloads = chain.workloads
    report = ScenarioRunner(mode="serial").run(
        chain.jobs(backend="ideal", target_accuracy=_TARGET))
    failed = [r.error for r in report if not r.ok]
    if failed:
        raise RuntimeError(f"heat-chain steps failed: {failed}")
    cache = report.summary["cache"]
    return {
        "num_steps": num_steps,
        "compiles": cache["compiles"],
        "cache_hit_rate": cache["hit_rate"],
        "required_hit_rate": (num_steps - 1) / num_steps,
        "converged": all(r.converged for r in report),
        "max_forward_error": _forward_error(report, workloads),
    }


# ---------------------------------------------------------------------- #
# (3) autotuned vs fixed ε_l
# ---------------------------------------------------------------------- #
def _autotune_family(name: str, params: dict, *, rounds: int,
                     profile_dir: str) -> dict:
    """Explore ``rounds`` observe/run cycles, then replay the measured best."""
    tuner = Autotuner(path=pathlib.Path(profile_dir) / f"{name}.json",
                      target_accuracy=_TARGET)
    build = dict(params)
    build.pop("topology", None)  # autotune section uses default topologies
    first_epsilon_l = None
    kappa = None
    for _ in range(rounds):
        scenario = tuner.tune_scenario(name, target_accuracy=_TARGET, **build)
        jobs = [replace(job, backend="ideal") for job in scenario.jobs]
        if first_epsilon_l is None:
            first_epsilon_l = float(jobs[0].epsilon_l)
            kappa = float(jobs[0].kappa)
        # fresh runner per round: the telemetry observe() persists must
        # describe this round's cache behaviour, not the whole session's
        report = ScenarioRunner(mode="serial").run(jobs)
        tuner.observe(name, report, kappa=jobs[0].kappa,
                      epsilon_l=jobs[0].epsilon_l)
    profile = tuner.profile(name)
    best_epsilon_l = float(profile.best_epsilon_l)
    if not np.isfinite(best_epsilon_l):
        raise RuntimeError(
            f"{name}: no adaptation round converged — the autotuner never "
            "anchored a best epsilon_l (see the profile's converged_fraction)")
    tuned_jobs = [replace(job, epsilon_l=best_epsilon_l, backend="ideal")
                  for job in build_scenario(name, target_accuracy=_TARGET,
                                            **build).jobs]
    tuned_report = ScenarioRunner(mode="serial").run(tuned_jobs)
    fixed_jobs = [replace(job, epsilon_l=_FIXED_EPSILON_L, backend="ideal")
                  for job in build_scenario(name, target_accuracy=_TARGET,
                                            **build).jobs]
    fixed_report = ScenarioRunner(mode="serial").run(fixed_jobs)
    tuned_calls = int(sum(r.block_encoding_calls for r in tuned_report))
    fixed_calls = int(sum(r.block_encoding_calls for r in fixed_report))
    return {
        "family": name,
        "kappa": kappa,
        "rounds": rounds,
        "cost_model_epsilon_l": float(optimal_epsilon_l(kappa, _TARGET)),
        "first_epsilon_l": first_epsilon_l,
        "adapted_epsilon_l": best_epsilon_l,
        "fixed_epsilon_l": _FIXED_EPSILON_L,
        "tuned_block_encoding_calls": tuned_calls,
        "fixed_block_encoding_calls": fixed_calls,
        "advantage": fixed_calls / tuned_calls if tuned_calls else float("nan"),
        "tuned_converged": all(r.converged for r in tuned_report),
        "fixed_converged": all(r.converged for r in fixed_report),
    }


# ---------------------------------------------------------------------- #
def run_benchmark(*, smoke: bool = False) -> dict:
    """Run every section, emit tables and (full runs) BENCH_problems.json."""
    configs = _family_configs(smoke)
    families = [_measure_family(name, params) for name, params in configs]
    chain = _measure_chain(16)
    rounds = 3 if smoke else 6
    autotune_names = (["poisson-multi-rhs", "heat-chain"] if smoke else
                      ["poisson-multi-rhs", "poisson-2d", "heat-chain",
                       "helmholtz", "prescribed-spectrum"])
    autotune_params = {
        "poisson-multi-rhs": {"num_points": 16,
                              "num_rhs": 2 if smoke else 8, "rng": 5},
        "poisson-2d": {"num_rhs": 8},
        "heat-chain": {"num_steps": 16},
        "helmholtz": {"num_rhs": 8},
        "prescribed-spectrum": {"num_rhs": 8},
    }
    with tempfile.TemporaryDirectory() as profile_dir:
        autotune = [_autotune_family(name, autotune_params[name],
                                     rounds=rounds, profile_dir=profile_dir)
                    for name in autotune_names]
    poisson = next(c for c in autotune if c["family"] == "poisson-multi-rhs")
    summary = {
        "smoke": smoke,
        "target_accuracy": _TARGET,
        "families": families,
        "chain": chain,
        "autotune": {
            "cases": autotune,
            "fixed_epsilon_l": _FIXED_EPSILON_L,
            "poisson_matches_cost_model": (poisson["first_epsilon_l"]
                                           == poisson["cost_model_epsilon_l"]),
            "total_tuned_calls": sum(c["tuned_block_encoding_calls"]
                                     for c in autotune),
            "total_fixed_calls": sum(c["fixed_block_encoding_calls"]
                                     for c in autotune),
        },
    }
    summary["autotune"]["aggregate_advantage"] = (
        summary["autotune"]["total_fixed_calls"]
        / summary["autotune"]["total_tuned_calls"])

    text = "\n\n".join([
        format_table(
            [{"family": c["family"], "N": c["dimension"], "jobs": c["jobs"],
              "kappa": c["kappa"], "eps_l": c["epsilon_l"],
              "jobs/s": c["jobs_per_sec"], "hit rate": c["cache_hit_rate"],
              "compiles": c["compiles"], "fwd err": c["max_forward_error"]}
             for c in families],
            title="Problem families through ScenarioRunner (serial, ideal "
                  "backend, refined to 1e-8, validated against classical "
                  "exact solutions)"),
        format_table(
            [{"T": chain["num_steps"], "compiles": chain["compiles"],
              "hit rate": chain["cache_hit_rate"],
              "required": chain["required_hit_rate"],
              "fwd err": chain["max_forward_error"]}],
            title="Heat-equation chain: T ordered solves, one synthesis"),
        format_table(
            [{"family": c["family"], "kappa": c["kappa"],
              "eps_l model": c["cost_model_epsilon_l"],
              "eps_l adapted": c["adapted_epsilon_l"],
              "BE tuned": c["tuned_block_encoding_calls"],
              "BE fixed": c["fixed_block_encoding_calls"],
              "advantage": c["advantage"]}
             for c in autotune],
            title=f"Autotuned vs fixed eps_l={_FIXED_EPSILON_L:g} "
                  f"(total block-encoding calls, {rounds} adaptation rounds)"),
    ])
    if smoke:
        # the smoke gate only checks thresholds; never overwrite the full
        # benchmark artifacts (README/ROADMAP cite their numbers).
        emit("problems_smoke", text)
    else:
        _JSON_PATH.write_text(json.dumps(summary, indent=2) + "\n",
                              encoding="utf-8")
        emit("problems", text + f"\n\nwritten: {_JSON_PATH.name}")
    return summary


def _check(summary: dict) -> list[str]:
    """Acceptance criteria of the problem-suite tentpole; empty list = pass."""
    failures = []
    for case in summary["families"]:
        if not case["converged"]:
            failures.append(f"{case['family']}: not all jobs converged")
        if case["max_forward_error"] > _MAX_FORWARD_ERROR:
            failures.append(
                f"{case['family']}: forward error {case['max_forward_error']:.2e} "
                f"exceeds {_MAX_FORWARD_ERROR:.0e} against the exact solution")
    chain = summary["chain"]
    if chain["compiles"] != 1:
        failures.append(
            f"heat chain performed {chain['compiles']} syntheses (expected 1)")
    if chain["cache_hit_rate"] < chain["required_hit_rate"]:
        failures.append(
            f"heat chain cache hit rate {chain['cache_hit_rate']:.3f} below "
            f"(T-1)/T = {chain['required_hit_rate']:.3f}")
    autotune = summary["autotune"]
    if not autotune["poisson_matches_cost_model"]:
        failures.append(
            "autotuner's first Poisson choice deviates from the cost-model "
            "optimum")
    if autotune["aggregate_advantage"] < _MIN_AUTOTUNE_ADVANTAGE:
        failures.append(
            f"adapted eps_l only saves {autotune['aggregate_advantage']:.2f}x "
            f"block-encoding calls vs fixed (required "
            f">= {_MIN_AUTOTUNE_ADVANTAGE:.2f}x)")
    for case in autotune["cases"]:
        if not (case["tuned_converged"] and case["fixed_converged"]):
            failures.append(f"autotune {case['family']}: non-converged jobs")
    return failures


def test_problems(benchmark):
    summary = benchmark.pedantic(run_benchmark, rounds=1, iterations=1,
                                 kwargs={"smoke": True})
    failures = _check(summary)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration (the CI regression gate)")
    args = parser.parse_args(argv)
    summary = run_benchmark(smoke=args.smoke)
    autotune = summary["autotune"]
    print(f"{len(summary['families'])} family configs, chain hit rate "
          f"{summary['chain']['cache_hit_rate']:.3f} "
          f"({summary['chain']['compiles']} synthesis), autotune advantage "
          f"{autotune['aggregate_advantage']:.2f}x "
          f"(poisson matches cost model: {autotune['poisson_matches_cost_model']})")
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
