"""Figure 4 — scaled residual per iteration for κ = 100, 200, 300.

At these condition numbers the Eq.-(4) polynomial degree is 1629, 3283 and
5207.  Like the paper — which switches to the estimation algorithm of
Ref. [32] and lets it determine ``ε_l`` — this benchmark uses the
ideal-polynomial backend, which applies the very same Chebyshev polynomial to
the singular values.  The circuit backend can synthesise these degrees, but
its set-up is the cost: measured on 2 vCPUs, 1.4 s, 5.0 s and 13.5 s (7.6 s of
it phase solving at degree 5207, peak RSS 641 MB) against 0.08-0.31 s for the
ideal backend, which would add about 20 s to the paper-benchmark gate for the
same iteration counts.  The achieved ``ε_l`` of the constructed polynomial
is reported and used for the Theorem III.1 envelope.

Expected shape: geometric contraction of the scaled residual for every κ,
iteration count no larger than (and usually well below) the theoretical bound.
"""

import numpy as np
import pytest

from repro.applications import random_workload
from repro.core import MixedPrecisionRefinement, QSVTLinearSolver
from repro.reporting import format_convergence_history, format_table

from .common import emit

_KAPPAS = (100.0, 200.0, 300.0)
_TARGET = 1e-11


def _run_all():
    runs = []
    for kappa in _KAPPAS:
        workload = random_workload(16, kappa, rng=int(kappa))
        solver = QSVTLinearSolver(workload.matrix, epsilon_l=1e-3, backend="ideal")
        driver = MixedPrecisionRefinement(solver, target_accuracy=_TARGET)
        result = driver.solve(workload.rhs, x_true=workload.solution)
        runs.append((kappa, solver, result))
    return runs


def test_fig4_scaled_residual_large_kappa(benchmark):
    runs = benchmark.pedantic(_run_all, rounds=1, iterations=1)
    sections = [f"Figure 4 — scaled residual until convergence, kappa = 100, 200, 300 "
                f"(N = 16 random systems, ideal-polynomial backend, target {_TARGET:g})"]
    summary_rows = []
    for kappa, solver, result in runs:
        info = solver.describe()
        sections.append("")
        sections.append(f"kappa = {kappa:g}: polynomial degree {info['polynomial_degree']}, "
                        f"achieved epsilon_l {info['achieved_epsilon_l']:.2e}, "
                        f"bound {result.iteration_bound:g}")
        sections.append(format_convergence_history(result.scaled_residuals,
                                                   bound=result.predicted_residuals))
        summary_rows.append({
            "kappa": kappa,
            "degree": info["polynomial_degree"],
            "achieved epsilon_l": info["achieved_epsilon_l"],
            "iterations": result.iterations,
            "Thm III.1 bound": result.iteration_bound,
            "final omega": result.scaled_residuals[-1],
            "BE calls": result.total_block_encoding_calls,
        })
    sections.append("")
    sections.append(format_table(summary_rows, title="summary"))
    emit("fig4_convergence_large_kappa", "\n".join(sections))

    for kappa, _, result in runs:
        assert result.converged, f"refinement did not converge for kappa={kappa}"
        assert result.iterations <= result.iteration_bound
        assert np.all(np.diff(result.scaled_residuals) < 0)
