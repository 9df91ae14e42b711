"""Gate fusion — fused execution plans vs the unfused per-gate reference.

Measures, across problem size ``N`` and batch size ``B``, what the compiled
execution-plan IR (:mod:`repro.quantum.plan`) buys on the QSVT solve circuit:

* **contractions per sweep** — the fused :class:`~repro.qsp.qsvt_circuit.QSVTProgram`
  performs far fewer ``tensordot`` contractions than the per-gate loop (the
  QSVT alternation of block-encoding layers and ancilla-diagonal projector
  phases collapses into nested-set fusions);
* **sweep wall time** — replaying the fused plans vs the ``fusion="none"``
  reference program on the same right-hand sides;
* **correctness** — both paths agree to 1e-12 (this is the correctness
  oracle of the IR).

Results go to ``benchmarks/results/fusion.txt`` (human-readable) and to
``BENCH_fusion.json`` at the repository root (machine-readable speedups).
Run directly for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_fusion.py --smoke

which exits non-zero when the fusion acceptance criteria regress
(contraction reduction >= 1.5x and fused sweeps no slower than unfused).
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.applications import random_workload
from repro.core.backends import CircuitQSVTBackend
from repro.linalg import random_rhs
from repro.reporting import format_table
from repro.utils import as_generator

try:
    from .common import emit
except ImportError:          # script mode: python benchmarks/bench_fusion.py
    from common import emit

_EPSILON_L = 1e-2
_KAPPA = 10.0
_REPEATS = 3
_MIN_CONTRACTION_RATIO = 1.5
_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_fusion.json"


def _best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_case(dimension: int, batch_size: int, *, repeats: int = _REPEATS) -> dict:
    """Fused vs unfused QSVT sweep on one ``(N, B)`` configuration."""
    workload = random_workload(dimension, _KAPPA, rng=2025)
    gen = as_generator(11)
    rhs = np.stack([random_rhs(dimension, rng=gen) for _ in range(batch_size)])

    fused = CircuitQSVTBackend()
    fused.prepare(workload.matrix, epsilon_l=_EPSILON_L)
    unfused = CircuitQSVTBackend(fusion="none")
    unfused.prepare(workload.matrix, epsilon_l=_EPSILON_L)

    def run(backend):
        if batch_size == 1:
            return [backend.apply_inverse(rhs[0])]
        return backend.apply_inverse_batch(rhs)

    # warm-up (numpy buffers, plan cache)
    run(fused), run(unfused)
    fused_time = _best_of(repeats, lambda: run(fused))
    unfused_time = _best_of(repeats, lambda: run(unfused))
    deviation = max(
        float(np.max(np.abs(a.direction - b.direction)))
        for a, b in zip(run(fused), run(unfused)))

    contractions = fused.program.contractions_per_sweep
    gates = unfused.program.contractions_per_sweep   # one contraction per gate
    return {
        "dimension": dimension,
        "batch_size": batch_size,
        "gates_per_sweep": gates,
        "contractions_per_sweep": contractions,
        "contraction_ratio": gates / max(contractions, 1),
        "fused_time_s": fused_time,
        "unfused_time_s": unfused_time,
        "speedup": unfused_time / fused_time,
        "max_deviation": deviation,
    }


def run_benchmark(*, smoke: bool = False) -> dict:
    """Run every configuration, emit the table and write ``BENCH_fusion.json``."""
    if smoke:
        configurations = [(16, 4)]
        repeats = 1
    else:
        configurations = [(8, 1), (8, 8), (16, 1), (16, 8), (16, 32)]
        repeats = _REPEATS
    cases = [_measure_case(n, b, repeats=repeats) for n, b in configurations]

    rows = [
        {"N": c["dimension"], "B": c["batch_size"],
         "gates/sweep": c["gates_per_sweep"],
         "contractions/sweep": c["contractions_per_sweep"],
         "contraction x": c["contraction_ratio"],
         "fused [s]": c["fused_time_s"], "unfused [s]": c["unfused_time_s"],
         "speedup": c["speedup"], "max dev": c["max_deviation"]}
        for c in cases
    ]
    summary = {
        "epsilon_l": _EPSILON_L,
        "kappa": _KAPPA,
        "smoke": smoke,
        "cases": cases,
        "min_contraction_ratio": min(c["contraction_ratio"] for c in cases),
        "min_speedup": min(c["speedup"] for c in cases),
        "max_deviation": max(c["max_deviation"] for c in cases),
    }
    text = format_table(rows, title=(
        f"Gate fusion — QSVT solve circuit, kappa = {_KAPPA:g}, "
        f"epsilon_l = {_EPSILON_L:g} (fused greedy plan vs per-gate loop)"))
    if smoke:
        # the smoke gate only checks thresholds; never overwrite the full
        # benchmark artifacts (README/ROADMAP cite their numbers).
        emit("fusion_smoke", text)
    else:
        _JSON_PATH.write_text(json.dumps(summary, indent=2) + "\n",
                              encoding="utf-8")
        emit("fusion", text + f"\n\nwritten: {_JSON_PATH.name}")
    return summary


def _check(summary: dict) -> list[str]:
    """Acceptance criteria of the fusion tentpole; empty list = pass."""
    failures = []
    if summary["min_contraction_ratio"] < _MIN_CONTRACTION_RATIO:
        failures.append(
            f"contraction reduction {summary['min_contraction_ratio']:.2f}x is "
            f"below the required {_MIN_CONTRACTION_RATIO:.1f}x")
    if summary["min_speedup"] < 1.0:
        failures.append(
            f"fused sweep is slower than the per-gate loop "
            f"(speedup {summary['min_speedup']:.2f}x)")
    if summary["max_deviation"] > 1e-12:
        failures.append(
            f"fused/unfused deviation {summary['max_deviation']:.2e} "
            f"exceeds 1e-12")
    return failures


def test_fusion(benchmark):
    summary = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    failures = _check(summary)
    assert not failures, "; ".join(failures)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="single fast configuration (the CI regression gate)")
    args = parser.parse_args(argv)
    summary = run_benchmark(smoke=args.smoke)
    print(f"contraction reduction >= {summary['min_contraction_ratio']:.1f}x, "
          f"sweep speedup >= {summary['min_speedup']:.2f}x, "
          f"max deviation {summary['max_deviation']:.2e}")
    failures = _check(summary)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
