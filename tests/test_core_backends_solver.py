"""Tests for the QPU backends and the single-solve QSVT solver."""

import numpy as np
import pytest

from repro.core import (
    CircuitQSVTBackend,
    ExactInverseBackend,
    IdealPolynomialBackend,
    QSVTLinearSolver,
    SamplingModel,
    make_backend,
)
from repro.exceptions import BackendError
from repro.linalg import random_matrix_with_condition_number, random_rhs


class TestBackendFactory:
    def test_names(self):
        assert isinstance(make_backend("circuit"), CircuitQSVTBackend)
        assert isinstance(make_backend("ideal"), IdealPolynomialBackend)
        assert isinstance(make_backend("exact"), ExactInverseBackend)
        assert isinstance(make_backend("auto"), CircuitQSVTBackend)

    def test_unknown_name(self):
        with pytest.raises(BackendError):
            make_backend("quantum-magic")


class TestExactInverseBackend:
    def test_relative_error_matches_epsilon_l(self, rng):
        matrix = random_matrix_with_condition_number(16, 10.0, rng=rng)
        rhs = random_rhs(16, rng=rng)
        backend = ExactInverseBackend(rng=0)
        backend.prepare(matrix, epsilon_l=1e-3)
        application = backend.apply_inverse(rhs)
        exact = np.linalg.solve(matrix, rhs)
        exact_dir = exact / np.linalg.norm(exact)
        angle_error = np.linalg.norm(application.direction - exact_dir)
        assert angle_error <= 2 * 1e-3

    def test_requires_prepare(self):
        with pytest.raises(BackendError):
            ExactInverseBackend().apply_inverse(np.ones(4))


class TestIdealPolynomialBackend:
    def test_direction_accuracy(self, medium_workload):
        backend = IdealPolynomialBackend()
        backend.prepare(medium_workload.matrix, epsilon_l=1e-4)
        application = backend.apply_inverse(medium_workload.rhs)
        exact_dir = medium_workload.solution / np.linalg.norm(medium_workload.solution)
        assert np.linalg.norm(application.direction - exact_dir) < 1e-3
        assert application.block_encoding_calls == application.polynomial_degree > 0

    def test_describe_reports_achieved_accuracy(self, medium_workload):
        backend = IdealPolynomialBackend()
        backend.prepare(medium_workload.matrix, epsilon_l=1e-3)
        info = backend.describe()
        assert 0 < info["achieved_epsilon_l"] <= 1e-3
        assert info["polynomial_degree"] > 1

    def test_calibration_reduces_degree(self, medium_workload):
        calibrated = IdealPolynomialBackend(calibrate_polynomial=True)
        calibrated.prepare(medium_workload.matrix, epsilon_l=1e-2)
        conservative = IdealPolynomialBackend(calibrate_polynomial=False)
        conservative.prepare(medium_workload.matrix, epsilon_l=1e-2)
        assert calibrated.polynomial.degree <= conservative.polynomial.degree

    def test_directions_match_a_per_call_filter_reference(self, medium_workload,
                                                          tmp_path):
        # the dense route pushes rows through V diag(P(Σ/α)) W†: directions
        # must equal an inline per-call evaluation of the filter, after
        # prepare() and after a SynthesisStore round-trip (import_payload)
        from repro.engine import CompiledSolverCache, SynthesisStore
        from repro.qsp.chebyshev import evaluate_chebyshev

        store = SynthesisStore(tmp_path)
        compiled = CompiledSolverCache(store=store).solver(
            medium_workload.matrix, epsilon_l=1e-3, backend="ideal")
        restoring = CompiledSolverCache(store=store)
        restored = restoring.solver(medium_workload.matrix, epsilon_l=1e-3,
                                    backend="ideal")
        assert restoring.stats()["store_hits"] == 1
        batch = np.random.default_rng(3).standard_normal((3, 16))

        def per_call(backend, rows):
            transformed = evaluate_chebyshev(backend.polynomial.coefficients,
                                             backend._sigma / backend.alpha)
            unit = rows / np.linalg.norm(rows, axis=1)[:, None]
            raw = (backend._v @ (transformed[:, None]
                                 * (backend._wh @ unit.T))).T
            return [backend.sampling.read_out(row / np.linalg.norm(row))
                    for row in raw]

        for backend in (compiled.backend, restored.backend):
            for application, direction in zip(
                    backend.apply_inverse_batch(batch), per_call(backend, batch)):
                assert np.array_equal(application.direction, direction)
            assert np.array_equal(backend.apply_inverse(batch[0]).direction,
                                  per_call(backend, batch[:1])[0])

    def test_zero_rhs_rejected(self, medium_workload):
        backend = IdealPolynomialBackend()
        backend.prepare(medium_workload.matrix, epsilon_l=1e-2)
        with pytest.raises(BackendError):
            backend.apply_inverse(np.zeros(16))

    def test_sampling_model_is_applied(self, medium_workload):
        noisy = IdealPolynomialBackend(sampling=SamplingModel(mode="gaussian",
                                                              shots=100, rng=0))
        noisy.prepare(medium_workload.matrix, epsilon_l=1e-4)
        clean = IdealPolynomialBackend()
        clean.prepare(medium_workload.matrix, epsilon_l=1e-4)
        rhs = medium_workload.rhs
        assert not np.allclose(noisy.apply_inverse(rhs).direction,
                               clean.apply_inverse(rhs).direction)
        assert noisy.apply_inverse(rhs).shots == 100


class TestCircuitBackend:
    def test_prepared_metadata(self, prepared_circuit_solver):
        info = prepared_circuit_solver.backend.describe()
        assert info["backend"] == "circuit-qsvt"
        assert info["polynomial_degree"] % 2 == 1
        assert info["phase_residual"] < 1e-8

    def test_solve_accuracy_matches_epsilon_l(self, prepared_circuit_solver, rng):
        rhs = random_rhs(8, rng=rng)
        record = prepared_circuit_solver.solve(rhs)
        # scaled residual of a single solve is bounded by ~ eps_l * kappa
        assert record.scaled_residual < prepared_circuit_solver.epsilon_l * \
            prepared_circuit_solver.kappa
        assert record.block_encoding_calls == 2 * record.polynomial_degree
        assert 0 < record.success_probability <= 1.0

    def test_requires_prepare(self):
        with pytest.raises(BackendError):
            CircuitQSVTBackend().apply_inverse(np.ones(4))


class TestQSVTLinearSolver:
    def test_auto_backend_selects_circuit_for_small_problems(self, prepared_circuit_solver):
        assert isinstance(prepared_circuit_solver.backend, CircuitQSVTBackend)

    def test_auto_backend_falls_back_to_ideal_for_large_kappa(self):
        matrix = random_matrix_with_condition_number(16, 500.0, rng=3)
        solver = QSVTLinearSolver(matrix, epsilon_l=1e-4, backend="auto")
        assert isinstance(solver.backend, IdealPolynomialBackend)

    def test_solution_and_scale(self, prepared_ideal_solver, rng):
        rhs = random_rhs(16, rng=rng)
        record = prepared_ideal_solver.solve(rhs)
        exact = np.linalg.solve(prepared_ideal_solver.matrix, rhs)
        rel = np.linalg.norm(record.x - exact) / np.linalg.norm(exact)
        assert rel < 10 * prepared_ideal_solver.epsilon_l
        np.testing.assert_allclose(record.x, record.scale * record.direction)

    def test_describe(self, prepared_ideal_solver):
        info = prepared_ideal_solver.describe()
        assert info["dimension"] == 16
        assert info["epsilon_l"] == prepared_ideal_solver.epsilon_l

    def test_invalid_epsilon_l(self, medium_workload):
        with pytest.raises(ValueError):
            QSVTLinearSolver(medium_workload.matrix, epsilon_l=2.0)

    def test_rhs_dimension_check(self, prepared_ideal_solver):
        with pytest.raises(ValueError):
            prepared_ideal_solver.solve(np.ones(8))

    def test_exact_backend_through_solver(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-4, backend="exact")
        record = solver.solve(medium_workload.rhs)
        assert record.scaled_residual < 1e-2
