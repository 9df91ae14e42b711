"""Tests for the Eq. (4) inverse polynomial construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DimensionError
from repro.qsp import (
    build_inverse_polynomial,
    inverse_polynomial_degree,
    inverse_polynomial_parameters,
    raw_inverse_coefficients,
)
from repro.qsp.chebyshev import evaluate_chebyshev
from repro.qsp.inverse_polynomial import polynomial_error_from_solution_accuracy


class TestParameters:
    def test_b_formula(self):
        b, _ = inverse_polynomial_parameters(10.0, 1e-3)
        assert b == int(np.ceil(100 * np.log(10 / 1e-3)))

    def test_degree_grows_with_kappa(self):
        assert inverse_polynomial_degree(50.0, 1e-3) > inverse_polynomial_degree(5.0, 1e-3)

    def test_degree_grows_as_accuracy_tightens(self):
        assert inverse_polynomial_degree(10.0, 1e-8) > inverse_polynomial_degree(10.0, 1e-2)

    def test_degree_is_odd(self):
        for kappa, eps in [(2.0, 1e-2), (10.0, 1e-4), (100.0, 1e-3)]:
            assert inverse_polynomial_degree(kappa, eps) % 2 == 1

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            inverse_polynomial_parameters(10.0, 2.0)

    def test_error_convention_mapping(self):
        assert polynomial_error_from_solution_accuracy(1e-2, 10.0) == pytest.approx(5e-4)
        assert polynomial_error_from_solution_accuracy(
            1e-2, 10.0, "direct") == pytest.approx(5e-3)
        with pytest.raises(ValueError):
            polynomial_error_from_solution_accuracy(1e-2, 10.0, "bogus")


class TestRawCoefficients:
    def test_odd_parity(self):
        coeffs = raw_inverse_coefficients(5.0, 1e-2)
        assert np.all(coeffs[0::2] == 0.0)

    def test_alternating_signs(self):
        coeffs = raw_inverse_coefficients(5.0, 1e-2)[1::2]
        signs = np.sign(coeffs[np.abs(coeffs) > 0])
        np.testing.assert_array_equal(signs, [(-1.0) ** j for j in range(signs.shape[0])])

    def test_max_degree_cap(self):
        coeffs = raw_inverse_coefficients(20.0, 1e-4, max_degree=31)
        assert coeffs.shape[0] <= 32

    def test_approximates_inverse_on_domain(self):
        kappa, eps = 6.0, 1e-4
        coeffs = raw_inverse_coefficients(kappa, eps)
        x = np.linspace(1.0 / kappa, 1.0, 300)
        error = np.max(np.abs(evaluate_chebyshev(coeffs, x) - 1.0 / x))
        assert error <= 2 * eps * 10   # construction + truncation slack

    @given(st.floats(min_value=1.5, max_value=30.0), st.floats(min_value=1e-5, max_value=1e-1))
    @settings(max_examples=20, deadline=None)
    def test_property_odd_function(self, kappa, eps):
        coeffs = raw_inverse_coefficients(kappa, eps)
        x = np.linspace(0.1, 1.0, 17)
        np.testing.assert_allclose(evaluate_chebyshev(coeffs, -x),
                                   -evaluate_chebyshev(coeffs, x), atol=1e-9)


class TestBuildInversePolynomial:
    def test_unscaled_accuracy(self):
        poly = build_inverse_polynomial(10.0, 1e-4)
        assert poly.inverse_scale == 1.0
        assert poly.relative_inverse_error() < 1e-3

    def test_scaled_polynomial_bounded_by_max_norm(self):
        poly = build_inverse_polynomial(10.0, 1e-3, max_norm=0.9)
        assert poly.max_abs() == pytest.approx(0.9, rel=1e-3)
        assert poly.inverse_scale < 1.0
        # the rescaled polynomial still approximates scale/x on the domain
        x = np.linspace(0.1, 1.0, 100)
        np.testing.assert_allclose(poly.evaluate(x), poly.inverse_scale / x,
                                   atol=5e-3 * poly.inverse_scale * 10)

    def test_apply_inverse_removes_scale(self):
        poly = build_inverse_polynomial(8.0, 1e-4, max_norm=0.8)
        x = np.linspace(1.0 / 8.0, 1.0, 50)
        np.testing.assert_allclose(x * poly.apply_inverse(x), 1.0, atol=1e-2)

    def test_degree_and_calls_consistent(self):
        poly = build_inverse_polynomial(5.0, 1e-3)
        assert poly.degree % 2 == 1
        assert poly.num_block_encoding_calls == poly.degree

    def test_parity_always_odd(self):
        assert build_inverse_polynomial(3.0, 1e-2).parity == 1

    def test_kappa_validation(self):
        with pytest.raises(DimensionError):
            build_inverse_polynomial(0.5, 1e-3)

    def test_truncation_reduces_degree(self):
        tight = build_inverse_polynomial(10.0, 1e-4, truncation_tolerance=0.0)
        loose = build_inverse_polynomial(10.0, 1e-4, truncation_tolerance=1e-5)
        assert loose.degree <= tight.degree

    def test_achieved_error_improves_with_epsilon(self):
        rough = build_inverse_polynomial(10.0, 1e-2).relative_inverse_error()
        fine = build_inverse_polynomial(10.0, 1e-6).relative_inverse_error()
        assert fine < rough

    def test_equal_values_compare_and_hash_equal(self):
        first = build_inverse_polynomial(10.0, 1e-3)
        second = build_inverse_polynomial(10.0, 1e-3, max_norm=None)
        second.max_abs()                          # fills a cached field only
        second.relative_inverse_error()
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != build_inverse_polynomial(10.0, 1e-2)
        assert first != build_inverse_polynomial(10.0, 1e-3, max_norm=0.9)
        assert first != "not a polynomial"
