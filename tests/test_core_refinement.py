"""Tests for the mixed-precision iterative refinement driver (Algorithms 1-2)."""

import numpy as np
import pytest

from repro.core import (
    ClassicalLUSolver,
    ExactInverseBackend,
    MixedPrecisionRefinement,
    QSVTLinearSolver,
    mixed_precision_lu_refinement,
    refine,
)
from repro.linalg import random_matrix_with_condition_number, random_rhs, scaled_residual
from repro.precision import PrecisionContext


@pytest.fixture()
def surrogate_solver(medium_workload):
    """Inner solver with *exactly* ε_l relative error (Theorem III.1 hypothesis)."""
    return QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-3,
                            backend=ExactInverseBackend(rng=11))


class TestRefinementWithSurrogate:
    def test_converges_to_target(self, surrogate_solver, medium_workload):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-11)
        result = driver.solve(medium_workload.rhs, x_true=medium_workload.solution)
        assert result.converged
        assert result.scaled_residuals[-1] <= 1e-11
        assert result.iterations <= result.iteration_bound

    def test_residual_contracts_geometrically(self, surrogate_solver, medium_workload):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-11)
        result = driver.solve(medium_workload.rhs)
        residuals = result.scaled_residuals
        ratios = residuals[1:] / residuals[:-1]
        # every iteration improves the residual, on average by roughly ε_l κ
        assert np.all(ratios < 1.0)

    def test_respects_theorem_envelope(self, surrogate_solver, medium_workload):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-11)
        result = driver.solve(medium_workload.rhs)
        # measured residuals must lie below the (ε_l κ)^{i+1} envelope
        # (theorem hypothesis realised exactly by the surrogate backend)
        predicted = result.predicted_residuals
        measured = result.scaled_residuals
        assert np.all(measured <= predicted * 10)

    def test_forward_error_tracked(self, surrogate_solver, medium_workload):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-10)
        result = driver.solve(medium_workload.rhs, x_true=medium_workload.solution)
        assert np.all(np.isfinite(result.forward_errors))
        assert result.forward_errors[-1] < result.forward_errors[0]

    def test_history_records_cumulative_calls(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-3, backend="ideal")
        result = MixedPrecisionRefinement(solver, target_accuracy=1e-11).solve(
            medium_workload.rhs)
        calls = [record.cumulative_block_encoding_calls for record in result.history]
        assert all(b > a for a, b in zip(calls, calls[1:]))
        assert result.total_block_encoding_calls == calls[-1]

    def test_communication_trace_built(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-3, backend="ideal")
        result = MixedPrecisionRefinement(solver, target_accuracy=1e-10).solve(
            medium_workload.rhs)
        trace = result.communication
        assert trace is not None
        assert trace.total_bytes("cpu->qpu") > 0
        assert trace.total_bytes("qpu->cpu") > 0
        assert 0 < trace.setup_fraction() <= 1.0

    def test_describe_is_read_once_at_construction(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-3,
                                  backend="ideal")
        calls = []
        describe = solver.describe

        def counting_describe():
            calls.append(1)
            return describe()

        solver.describe = counting_describe
        driver = MixedPrecisionRefinement(solver, target_accuracy=1e-10)
        assert len(calls) == 1
        batch = np.random.default_rng(2).standard_normal((3, 16))
        results = [driver.solve(batch[0])] + driver.solve_batch(batch)
        assert len(calls) == 1
        # every result carries its own copy of the snapshot
        results[0].solver_info["backend"] = "edited"
        assert all(r.solver_info["backend"] == "ideal-polynomial"
                   for r in results[1:])

    def test_tracking_can_be_disabled(self, surrogate_solver, medium_workload):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-8,
                                          track_communication=False)
        assert driver.solve(medium_workload.rhs).communication is None

    def test_summary_text(self, surrogate_solver, medium_workload):
        result = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-9).solve(
            medium_workload.rhs)
        text = result.summary()
        assert "scaled residual" in text and "converged" in text


class TestRefinementEdgeCases:
    def test_divergent_configuration_stops(self, medium_workload):
        # ε_l κ > 1: the refinement cannot converge and must stop gracefully
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=0.3,
                                  backend=ExactInverseBackend(rng=5))
        driver = MixedPrecisionRefinement(solver, target_accuracy=1e-12,
                                          max_iterations=10)
        result = driver.solve(medium_workload.rhs)
        assert not result.converged
        assert result.iterations <= 10
        assert np.isinf(result.iteration_bound) or np.isnan(result.iteration_bound)

    def test_invalid_target(self, surrogate_solver):
        with pytest.raises(ValueError):
            MixedPrecisionRefinement(surrogate_solver, target_accuracy=2.0)

    def test_zero_rhs_rejected(self, surrogate_solver):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-8)
        with pytest.raises(ValueError):
            driver.solve(np.zeros(16))

    def test_rhs_length_mismatch(self, surrogate_solver):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-8)
        with pytest.raises(ValueError):
            driver.solve(np.ones(4))

    def test_explicit_epsilon_l_and_kappa_override(self, surrogate_solver, medium_workload):
        driver = MixedPrecisionRefinement(surrogate_solver, target_accuracy=1e-10,
                                          epsilon_l=1e-3, kappa=10.0)
        assert driver.iteration_bound == pytest.approx(5.0)

    def test_max_iterations_respected(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=5e-2,
                                  backend=ExactInverseBackend(rng=6))
        result = MixedPrecisionRefinement(solver, target_accuracy=1e-14,
                                          max_iterations=2).solve(medium_workload.rhs)
        assert result.iterations <= 2


class TestConvenienceAPIs:
    def test_refine_one_call(self, medium_workload):
        result = refine(medium_workload.matrix, medium_workload.rhs, epsilon_l=1e-3,
                        target_accuracy=1e-10, backend="ideal",
                        x_true=medium_workload.solution)
        assert result.converged
        assert scaled_residual(medium_workload.matrix, result.x,
                               medium_workload.rhs) <= 1e-10

    @pytest.mark.parametrize("low_precision", ["fp32", "fp16", "bf16"])
    def test_classical_lu_refinement(self, low_precision, medium_workload):
        result = mixed_precision_lu_refinement(medium_workload.matrix, medium_workload.rhs,
                                               low_precision=low_precision,
                                               target_accuracy=1e-12)
        assert result.converged
        assert result.scaled_residuals[-1] <= 1e-12

    def test_classical_lu_solver_protocol(self, medium_workload):
        solver = ClassicalLUSolver(medium_workload.matrix, low_precision="fp32")
        record = solver.solve(medium_workload.rhs)
        assert record.scaled_residual < 1e-4
        driver = MixedPrecisionRefinement(solver, target_accuracy=1e-13,
                                          precision=PrecisionContext(low="fp32"))
        assert driver.solve(medium_workload.rhs).converged

    def test_lu_refinement_beats_single_low_precision_solve(self, medium_workload):
        single = ClassicalLUSolver(medium_workload.matrix, low_precision="fp16").solve(
            medium_workload.rhs)
        refined = mixed_precision_lu_refinement(medium_workload.matrix, medium_workload.rhs,
                                                low_precision="fp16", target_accuracy=1e-12)
        assert refined.scaled_residuals[-1] < single.scaled_residual
