"""Tests for Chebyshev utilities and the rectangle window."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.qsp import (
    build_inverse_polynomial,
    chebyshev_coefficients_of_function,
    evaluate_chebyshev,
    parity_of_series,
    rectangle_polynomial,
    scale_series_to_max,
    truncate_series,
    window_inverse_polynomial,
)
from repro.qsp.chebyshev import (
    chebyshev_nodes,
    enforce_parity,
    evaluate_chebyshev_operator,
    max_abs_on_interval,
)


class TestEvaluation:
    def test_t0_t1_t2(self):
        x = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(evaluate_chebyshev([1.0], x), np.ones_like(x))
        np.testing.assert_allclose(evaluate_chebyshev([0.0, 1.0], x), x)
        np.testing.assert_allclose(evaluate_chebyshev([0.0, 0.0, 1.0], x), 2 * x**2 - 1)

    def test_nodes_in_open_interval(self):
        nodes = chebyshev_nodes(16)
        assert np.all(np.abs(nodes) < 1.0)
        assert nodes.shape == (16,)

    def test_nodes_count_validation(self):
        with pytest.raises(ValueError):
            chebyshev_nodes(0)


class TestOperatorClenshaw:
    """The in-place matrix-free Clenshaw recurrence."""

    COEFFS = np.array([0.3, -0.7, 0.2, 0.45, -0.1, 0.05])

    def test_diagonal_operator_matches_chebval(self):
        rng = np.random.default_rng(3)
        eigenvalues = rng.uniform(-1.0, 1.0, 20)
        block = rng.standard_normal((20, 3))
        original = block.copy()
        got = evaluate_chebyshev_operator(
            self.COEFFS, lambda w: eigenvalues[:, None] * w, block)
        expected = (np.polynomial.chebyshev.chebval(eigenvalues, self.COEFFS)
                    [:, None] * block)
        np.testing.assert_allclose(got, expected, atol=1e-13)
        assert np.array_equal(block, original)
        vector = evaluate_chebyshev_operator(
            self.COEFFS, lambda w: eigenvalues * w, block[:, 0])
        np.testing.assert_allclose(vector, expected[:, 0], atol=1e-13)

    def test_identity_apply_returning_its_argument(self):
        # P(I) v = P(1) v.  An ``apply`` handing back its own argument
        # aliases the recurrence buffer it was given: writing into
        # ``apply``'s result would corrupt the recurrence.
        v = np.random.default_rng(4).standard_normal(16)
        original = v.copy()
        got = evaluate_chebyshev_operator(self.COEFFS, lambda w: w, v)
        expected = np.polynomial.chebyshev.chebval(1.0, self.COEFFS) * original
        np.testing.assert_allclose(got, expected, atol=1e-13)
        assert np.array_equal(v, original)
        assert got is not v

    def test_single_coefficient_is_a_scaling(self):
        v = np.arange(4.0)
        np.testing.assert_array_equal(
            evaluate_chebyshev_operator([2.5], lambda w: w, v), 2.5 * v)


class TestCoefficientExtraction:
    def test_exact_for_polynomials(self):
        coeffs = np.array([0.2, -0.3, 0.0, 0.5])
        recovered = chebyshev_coefficients_of_function(
            lambda x: evaluate_chebyshev(coeffs, x), degree=3)
        np.testing.assert_allclose(recovered, coeffs, atol=1e-12)

    def test_smooth_function_converges(self):
        coeffs = chebyshev_coefficients_of_function(np.exp, degree=20)
        x = np.linspace(-1, 1, 101)
        np.testing.assert_allclose(evaluate_chebyshev(coeffs, x), np.exp(x), atol=1e-12)

    def test_parity_filter(self):
        coeffs = chebyshev_coefficients_of_function(np.sin, degree=15, parity=1)
        assert np.all(coeffs[0::2] == 0.0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_coefficients_of_function(np.exp, degree=-1)


class TestSeriesManipulation:
    def test_truncation_bound(self):
        coeffs = np.array([1.0, 0.5, 1e-8, 1e-9, 1e-10])
        truncated = truncate_series(coeffs, 1e-6)
        assert truncated.shape[0] == 2
        x = np.linspace(-1, 1, 50)
        assert np.max(np.abs(evaluate_chebyshev(coeffs, x)
                             - evaluate_chebyshev(truncated, x))) <= 1e-6

    def test_truncation_of_negligible_series(self):
        assert truncate_series([1e-12, 1e-13], 1e-6).shape[0] == 1

    def test_parity_detection(self):
        assert parity_of_series([0.0, 1.0, 0.0, 0.3]) == 1
        assert parity_of_series([0.5, 0.0, 0.2]) == 0
        assert parity_of_series([0.5, 0.5]) is None

    def test_enforce_parity(self):
        out = enforce_parity([0.5, 0.3, 0.2, 0.1], 0)
        np.testing.assert_array_equal(out, [0.5, 0.0, 0.2, 0.0])
        with pytest.raises(ValueError):
            enforce_parity([1.0], 2)

    def test_scale_to_max(self):
        coeffs = np.array([0.0, 3.0])
        scaled, factor = scale_series_to_max(coeffs, 0.9)
        assert max_abs_on_interval(scaled) == pytest.approx(0.9, rel=1e-6)
        assert factor == pytest.approx(0.3)

    @given(st.lists(st.floats(min_value=-2, max_value=2), min_size=1, max_size=12),
           st.floats(min_value=0.1, max_value=0.99))
    @settings(max_examples=50, deadline=None)
    def test_property_scaling_reaches_requested_max(self, coeffs, target):
        coeffs = np.asarray(coeffs)
        if np.max(np.abs(coeffs)) < 1e-6:
            coeffs = coeffs + 1.0
        scaled, _ = scale_series_to_max(coeffs, target)
        assert max_abs_on_interval(scaled) == pytest.approx(target, rel=1e-3)


class TestRectangleWindow:
    def test_shape(self):
        kappa = 5.0
        coeffs = rectangle_polynomial(kappa)
        assert parity_of_series(coeffs, tolerance=1e-9) == 0
        x_pass = np.linspace(1.2 / kappa, 1.0, 50)
        np.testing.assert_allclose(evaluate_chebyshev(coeffs, x_pass), 1.0, atol=0.05)
        assert abs(evaluate_chebyshev(coeffs, 0.0)) < 0.05

    def test_kappa_validation(self):
        with pytest.raises(ValueError):
            rectangle_polynomial(0.5)

    def test_windowed_inverse_keeps_accuracy_and_damps_gap(self):
        kappa = 8.0
        inverse = build_inverse_polynomial(kappa, 1e-3)
        windowed = window_inverse_polynomial(inverse)
        # still a good inverse on the spectral domain
        assert windowed.relative_inverse_error() < 5e-2
        # damped inside the gap compared to the raw polynomial
        gap_point = 0.2 / kappa
        assert abs(windowed.evaluate(gap_point)) < abs(inverse.evaluate(gap_point))
        # parity stays odd
        assert parity_of_series(windowed.coefficients, tolerance=1e-9) == 1
