"""Engine throughput — batched multi-RHS QSVT solve and compiled-solver cache.

Two claims of the engine subsystem are measured on the paper's ``N = 16``
setting:

1. **Batching**: solving ``B`` right-hand sides through
   :meth:`~repro.core.qsvt_solver.QSVTLinearSolver.solve_batch` (one circuit
   sweep over a ``(B, 2**n)`` amplitude stack, see
   :meth:`repro.quantum.plan.ExecutionPlan.apply_batched`) is at least 2x
   faster than a Python loop of ``B`` independent :meth:`solve` calls.
2. **Caching**: a second request for the same ``(matrix, epsilon_l, backend)``
   through :class:`~repro.engine.cache.CompiledSolverCache` performs **zero**
   re-synthesis (the compile counter does not move and the hit is orders of
   magnitude faster than the compilation it skips).
"""

import time

import numpy as np

from repro.applications import random_workload
from repro.core import QSVTLinearSolver
from repro.engine import CompiledSolverCache
from repro.linalg import random_rhs
from repro.reporting import format_table
from repro.utils import as_generator

from .common import emit

_DIMENSION = 16
_KAPPA = 10.0
_EPSILON_L = 1e-2
_BATCH_SIZE = 8
_REPEATS = 3


def _best_of(repeats, fn):
    best, value = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _run():
    workload = random_workload(_DIMENSION, _KAPPA, rng=2025)
    gen = as_generator(7)
    rhs_batch = np.stack([random_rhs(_DIMENSION, rng=gen) for _ in range(_BATCH_SIZE)])

    solver = QSVTLinearSolver(workload.matrix, epsilon_l=_EPSILON_L, backend="circuit")

    # warm-up both paths once (numpy buffers, phase conversion, ...)
    solver.solve(rhs_batch[0])
    solver.solve_batch(rhs_batch[:2])

    looped_time, looped = _best_of(
        _REPEATS, lambda: [solver.solve(rhs) for rhs in rhs_batch])
    batched_time, batched = _best_of(
        _REPEATS, lambda: solver.solve_batch(rhs_batch))
    speedup = looped_time / batched_time
    max_deviation = max(
        float(np.max(np.abs(lo.x - ba.x))) for lo, ba in zip(looped, batched))

    # ---- compiled-solver cache: second solve -> zero re-synthesis -------- #
    cache = CompiledSolverCache()
    first_time, first = _best_of(
        1, lambda: cache.solver(workload.matrix, epsilon_l=_EPSILON_L,
                                backend="circuit"))
    compiles_after_first = cache.compiles
    second_time, second = _best_of(
        1, lambda: cache.solver(workload.matrix, epsilon_l=_EPSILON_L,
                                backend="circuit"))
    resyntheses = cache.compiles - compiles_after_first

    rows = [
        {"path": f"looped solve x{_BATCH_SIZE}", "wall time [s]": looped_time,
         "per rhs [s]": looped_time / _BATCH_SIZE},
        {"path": f"solve_batch (B={_BATCH_SIZE})", "wall time [s]": batched_time,
         "per rhs [s]": batched_time / _BATCH_SIZE},
        {"path": "first cache.solver (compile)", "wall time [s]": first_time,
         "per rhs [s]": float("nan")},
        {"path": "second cache.solver (hit)", "wall time [s]": second_time,
         "per rhs [s]": float("nan")},
    ]
    summary = {
        "rows": rows,
        "speedup": speedup,
        "max_deviation": max_deviation,
        "cache_hit_same_object": second is first,
        "resyntheses_on_second_solve": resyntheses,
        "cache_stats": cache.stats(),
    }
    return summary


def test_engine_throughput(benchmark):
    summary = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(summary["rows"], title=(
        f"Engine throughput — N = {_DIMENSION}, kappa = {_KAPPA:g}, "
        f"epsilon_l = {_EPSILON_L:g}, circuit backend"))
    lines = [
        text,
        "",
        f"batched vs looped speedup over B = {_BATCH_SIZE} right-hand sides: "
        f"{summary['speedup']:.2f}x",
        f"max |x_batched - x_looped| across the batch: {summary['max_deviation']:.2e}",
        f"second identical-matrix solve: cache hit = "
        f"{summary['cache_hit_same_object']}, re-syntheses = "
        f"{summary['resyntheses_on_second_solve']}",
        f"cache stats: {summary['cache_stats']}",
    ]
    emit("engine_throughput", "\n".join(lines))

    # acceptance criteria of the engine subsystem
    assert summary["speedup"] >= 2.0, (
        f"batched solve only {summary['speedup']:.2f}x faster than the loop")
    assert summary["max_deviation"] < 1e-10
    assert summary["cache_hit_same_object"]
    assert summary["resyntheses_on_second_solve"] == 0
