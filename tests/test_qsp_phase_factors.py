"""Tests for the symmetric-QSP phase-factor solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PhaseFactorError
from repro.qsp import (
    build_inverse_polynomial,
    qsp_polynomial_values,
    solve_qsp_phases,
)
from repro.qsp.chebyshev import evaluate_chebyshev
from repro.qsp.phase_factors import _ForwardMap, _symmetric_full_phases


def _check_phases_represent(coeffs, phases, atol=1e-9):
    x = np.linspace(-1.0, 1.0, 201)
    target = evaluate_chebyshev(coeffs, x)
    achieved = np.real(qsp_polynomial_values(phases, x))
    np.testing.assert_allclose(achieved, target, atol=atol)


class TestForwardMap:
    def test_trivial_phases_give_chebyshev(self):
        # θ = (0, ..., 0) gives ⟨0|W^d|0⟩ = T_d(x)
        for degree in (1, 2, 5):
            phases = np.zeros(degree + 1)
            x = np.linspace(-1, 1, 51)
            values = qsp_polynomial_values(phases, x)
            np.testing.assert_allclose(values.real, np.cos(degree * np.arccos(x)), atol=1e-12)

    def test_magnitude_bounded_by_one(self, rng):
        phases = rng.uniform(-np.pi, np.pi, 8)
        x = np.linspace(-1, 1, 101)
        assert np.max(np.abs(qsp_polynomial_values(phases, x))) <= 1.0 + 1e-12

    def test_scalar_input(self):
        value = qsp_polynomial_values(np.zeros(3), 0.5)
        assert np.isscalar(value) or value.shape == ()

    @pytest.mark.parametrize("degree", [1, 6, 13])
    def test_matches_two_by_two_product(self, rng, degree):
        # reference: e^{iθ_0 Z} Π_k W(x) e^{iθ_k Z} as (m, 2, 2) matmuls
        phases = rng.uniform(-np.pi, np.pi, degree + 1)
        x = np.linspace(-1.0, 1.0, 37)
        s = 1j * np.sqrt(1.0 - x**2)
        w = np.stack([np.stack([x, s], -1), np.stack([s, x], -1)], -2)
        product = np.broadcast_to(np.eye(2, dtype=complex), (x.size, 2, 2))
        for k, angle in enumerate(phases):
            rotation = np.diag([np.exp(1j * angle), np.exp(-1j * angle)])
            product = product @ (rotation if k == 0 else w @ rotation)
        np.testing.assert_allclose(qsp_polynomial_values(phases, x), product[:, 0, 0],
                                   rtol=0, atol=1e-14)


class TestJacobian:
    @pytest.mark.parametrize("degree", [7, 8, 21, 22])
    def test_matches_central_differences(self, rng, degree):
        # even degree: the middle phase is its own mirror and counts once
        forward = _ForwardMap(degree, degree % 2)
        reduced = rng.uniform(-0.3, 0.3, (degree + 2) // 2)
        full = _symmetric_full_phases(reduced, degree)
        analytic = forward.jacobian(full, forward(full)[1])
        step = 1e-6
        numeric = np.empty_like(analytic)
        for j in range(reduced.size):
            shift = np.zeros_like(reduced)
            shift[j] = step
            plus = forward(_symmetric_full_phases(reduced + shift, degree))[0]
            minus = forward(_symmetric_full_phases(reduced - shift, degree))[0]
            numeric[:, j] = (plus - minus) / (2 * step)
        np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-8)


class TestSolver:
    @pytest.mark.parametrize("coeffs", [
        [0.0, 0.5],                                   # 0.5 T_1
        [0.0, 0.3, 0.0, 0.4],                         # odd, degree 3
        [0.2, 0.0, 0.5],                              # even, degree 2
        [0.0, 0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.25],    # odd, degree 7
    ])
    def test_small_targets(self, coeffs):
        result = solve_qsp_phases(np.array(coeffs))
        assert result.converged
        _check_phases_represent(np.array(coeffs), result.phases)

    def test_phases_are_symmetric(self):
        result = solve_qsp_phases(np.array([0.0, 0.3, 0.0, 0.4]))
        np.testing.assert_allclose(result.phases, result.phases[::-1], atol=1e-12)

    def test_inverse_polynomial_target(self):
        poly = build_inverse_polynomial(4.0, 1e-2, max_norm=0.8)
        result = solve_qsp_phases(poly.coefficients, tolerance=1e-12)
        assert result.converged
        _check_phases_represent(poly.coefficients, result.phases, atol=1e-8)

    @pytest.mark.parametrize("kappa", [10.0, 30.0])
    def test_newton_converges_in_few_iterations(self, kappa):
        poly = build_inverse_polynomial(kappa, 1e-2, max_norm=0.9)
        result = solve_qsp_phases(poly.coefficients, tolerance=1e-12)
        assert result.converged and result.residual <= 1e-12
        assert result.iterations <= 10
        _check_phases_represent(poly.coefficients, result.phases, atol=1e-8)

    def test_mixed_parity_rejected(self):
        with pytest.raises(PhaseFactorError):
            solve_qsp_phases(np.array([0.3, 0.4]))

    def test_unbounded_target_rejected(self):
        with pytest.raises(PhaseFactorError):
            solve_qsp_phases(np.array([0.0, 1.2]))

    def test_zero_target_rejected(self):
        with pytest.raises(PhaseFactorError):
            solve_qsp_phases(np.zeros(4))

    def test_failure_reporting_without_raise(self):
        # an impossible budget: max_iterations=0 cannot converge
        result = solve_qsp_phases(np.array([0.0, 0.4, 0.0, 0.3]), max_iterations=1,
                                  raise_on_failure=False)
        assert not result.converged
        assert result.residual > 0

    def test_failure_raises_by_default(self):
        with pytest.raises(PhaseFactorError):
            solve_qsp_phases(np.array([0.0, 0.4, 0.0, 0.3]), max_iterations=1)

    @given(st.lists(st.floats(min_value=-0.12, max_value=0.12), min_size=2, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_property_random_odd_targets(self, raw):
        coeffs = np.zeros(2 * len(raw))
        coeffs[1::2] = raw
        if np.max(np.abs(coeffs)) < 1e-3:
            coeffs[1] = 0.1
        result = solve_qsp_phases(coeffs, raise_on_failure=False)
        if result.converged:
            _check_phases_represent(coeffs, result.phases, atol=1e-7)
        else:  # pragma: no cover - extremely rare, but do not hide it
            pytest.fail(f"solver failed on {coeffs!r} with residual {result.residual}")
