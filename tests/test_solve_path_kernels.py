"""Bit-identity pins of the matrix-free solve-path kernels.

Each kernel of the structured solve path — the Clenshaw recurrence, the
banded contraction and the diagonal shift — is compared with
``np.array_equal`` against a test-local textbook loop that forms every
term, so a kernel that saves a memory pass cannot change a rounding.
Also pinned here: structured operators are not re-hashed per solve (their
storage is frozen, read-only views of writable arrays included), shared-
memory attachments stay zero-copy, the achieved-error memo, and the DCT
evaluation of cosine-grid maxima.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import IdealPolynomialBackend, QSVTLinearSolver
from repro.core import qsvt_solver as qsvt_solver_module
from repro.core.backends import _calibrated_polynomial
from repro.engine import sharedmem
from repro.exceptions import StaleSynthesisError
from repro.linalg import (
    BandedOperator,
    CSROperator,
    DiagonalShiftOperator,
    random_matrix_with_condition_number,
)
from repro.qsp.chebyshev import (
    evaluate_chebyshev_on_cosine_grid,
    evaluate_chebyshev_operator,
    max_abs_on_interval,
)
from repro.qsp.inverse_polynomial import InversePolynomial


# ---------------------------------------------------------------------- #
# reference loops: the textbook forms the kernels must round exactly like
# ---------------------------------------------------------------------- #
def _reference_clenshaw(coeffs, apply, v):
    """``b_k = c_k v + 2 M b_{k+1} - b_{k+2}`` with every term formed."""
    b1 = np.zeros_like(v)
    b2 = np.zeros_like(v)
    for k in range(len(coeffs) - 1, 0, -1):
        b1, b2 = coeffs[k] * v + 2.0 * apply(b1) - b2, b1
    return coeffs[0] * v + apply(b1) - b2


def _reference_band_apply(n, bands, x, transpose=False):
    """``y = 0``, then ``y[dst] += d * x[src]`` per band in offset order."""
    y = np.zeros_like(x)
    for k in sorted(bands):
        d = np.asarray(bands[k], dtype=float)
        d = d[:, None] if x.ndim == 2 else d
        m = n - abs(k)
        if (k >= 0) != transpose or k == 0:
            dst, src = slice(0, m), slice(abs(k), n)
        else:
            dst, src = slice(abs(k), n), slice(0, m)
        y[dst] += d * x[src]
    return y


def _symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + a.T
    return a / np.linalg.norm(a, 2)


# ---------------------------------------------------------------------- #
# Clenshaw
# ---------------------------------------------------------------------- #
class TestClenshawBitIdentity:
    RNG = np.random.default_rng(11)
    ODD = np.where(np.arange(12) % 2 == 1, RNG.standard_normal(12), 0.0)
    EVEN = np.where(np.arange(11) % 2 == 0, RNG.standard_normal(11), 0.0)
    MIXED = np.array([0.0, 0.4, 0.0, 0.0, -0.3, 0.25, 0.0, 0.1, 0.0, 0.0])

    @pytest.mark.parametrize("coeffs", [ODD, EVEN, MIXED],
                             ids=["odd", "even", "mixed"])
    @pytest.mark.parametrize("scale", [1.0, 1.0 / 3.7], ids=["s1", "inv-alpha"])
    @pytest.mark.parametrize("shape", [(16,), (16, 3)], ids=["1d", "2d"])
    def test_matches_the_textbook_loop(self, coeffs, scale, shape):
        m = 3.7 * _symmetric(16, 5)
        v = np.random.default_rng(2).standard_normal(shape)
        original = v.copy()
        got = evaluate_chebyshev_operator(coeffs, lambda w: m @ w, v,
                                          scale=scale)
        # the textbook form scales each product by s before the recurrence
        expected = _reference_clenshaw(
            coeffs, lambda w: (m @ w) * scale if scale != 1.0 else m @ w, v)
        assert np.array_equal(got, expected)
        assert np.array_equal(v, original)

    @pytest.mark.parametrize("coeffs", [ODD, EVEN, MIXED],
                             ids=["odd", "even", "mixed"])
    @pytest.mark.parametrize("scale", [1.0, 0.5], ids=["s1", "half"])
    def test_apply_returning_a_view_of_its_argument(self, coeffs, scale):
        v = np.random.default_rng(4).standard_normal((8, 2))
        original = v.copy()
        got = evaluate_chebyshev_operator(coeffs, lambda w: w[:], v,
                                          scale=scale)
        expected = _reference_clenshaw(coeffs, lambda w: w * scale, v)
        assert np.array_equal(got, expected)
        assert np.array_equal(v, original)
        assert not np.shares_memory(got, v)

    @pytest.mark.parametrize("coeffs", [ODD, EVEN, MIXED[:2]],
                             ids=["odd", "even", "degree-1"])
    def test_degree_d_costs_d_applications(self, coeffs):
        calls = []
        evaluate_chebyshev_operator(
            coeffs, lambda w: calls.append(1) or 0.5 * w, np.ones(4))
        assert len(calls) == len(coeffs) - 1

    def test_matrix_free_backend_matches_the_per_product_scaling(self):
        operator = BandedOperator.toeplitz(64, {0: 4.0, 1: -1.0, -1: -1.0})
        backend = IdealPolynomialBackend()
        backend.prepare(operator, epsilon_l=1e-2)
        block = np.random.default_rng(8).standard_normal((64, 3))
        block /= np.linalg.norm(block, axis=0)
        inv_alpha = 1.0 / backend.alpha
        expected = _reference_clenshaw(
            backend.polynomial.coefficients,
            lambda w: operator.matmat(w) * inv_alpha, block)
        assert np.array_equal(backend._transform_matrix_free(block), expected)


# ---------------------------------------------------------------------- #
# banded contraction
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("offsets", [[-1, 0, 1], [0, 1, -1], [2, -3], [2], [-1]],
                         ids=["tri", "tri-unsorted", "gapped", "super", "sub"])
@pytest.mark.parametrize("transpose", [False, True], ids=["A", "AT"])
@pytest.mark.parametrize("shape", [(9,), (9, 4)], ids=["1d", "2d"])
def test_band_apply_matches_zero_then_add(offsets, transpose, shape):
    n = 9
    rng = np.random.default_rng(len(offsets) + 10 * abs(offsets[0]))
    bands = {k: rng.standard_normal(n - abs(k)) for k in offsets}
    bands[offsets[0]][0] = -0.0      # an exact zero product in the first band
    operator = BandedOperator(n, bands)
    x = rng.standard_normal(shape)
    expected = _reference_band_apply(n, bands, x, transpose=transpose)
    got = (operator.rmatmat(x) if transpose else operator.matmat(x))
    assert np.array_equal(got, expected)
    dense = operator.to_dense()
    np.testing.assert_allclose(got, (dense.T if transpose else dense) @ x,
                               atol=1e-13)


def test_band_apply_mixed_constant_bands_bit_identical():
    rng = np.random.default_rng(3)
    bands = {-2: np.full(7, -0.5), 0: rng.standard_normal(9), 1: np.full(8, 2.0)}
    operator = BandedOperator(9, bands)
    x = rng.standard_normal((9, 5))
    assert np.array_equal(operator.matmat(x), _reference_band_apply(9, bands, x))
    assert np.array_equal(operator.rmatvec(x[:, 0]),
                          _reference_band_apply(9, bands, x[:, 0], True))


# ---------------------------------------------------------------------- #
# diagonal shift
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("scale", [1.0, 2.5])
@pytest.mark.parametrize("shift", [0.3, 1.0])
@pytest.mark.parametrize("make_base", [
    lambda rng: BandedOperator(10, {0: rng.standard_normal(10),
                                    1: rng.standard_normal(9)}),
    lambda rng: CSROperator.from_dense(
        np.triu(rng.standard_normal((10, 10)), -1)),
], ids=["banded", "csr"])
def test_diagonal_shift_matches_scale_then_shift(scale, shift, make_base):
    rng = np.random.default_rng(5)
    base = make_base(rng)
    operator = DiagonalShiftOperator(base, shift=shift, scale=scale)
    vec, block = rng.standard_normal(10), rng.standard_normal((10, 3))
    for method, x in (("matvec", vec), ("matmat", block),
                      ("rmatvec", vec), ("rmatmat", block)):
        original = x.copy()
        expected = scale * getattr(base, method)(x) + shift * x
        assert np.array_equal(getattr(operator, method)(x), expected), method
        assert np.array_equal(x, original)


# ---------------------------------------------------------------------- #
# staleness: structured operators are not re-hashed
# ---------------------------------------------------------------------- #
@pytest.fixture()
def fingerprint_calls(monkeypatch):
    calls = []
    original = qsvt_solver_module.matrix_fingerprint

    def counting(matrix):
        calls.append(type(matrix).__name__)
        return original(matrix)

    monkeypatch.setattr(qsvt_solver_module, "matrix_fingerprint", counting)
    return calls


def test_structured_solves_do_not_rehash(fingerprint_calls):
    operator = BandedOperator.toeplitz(32, {0: 4.0, 1: -1.0, -1: -1.0})
    solver = QSVTLinearSolver(operator, epsilon_l=1e-2)
    rhs = np.random.default_rng(1).standard_normal((3, 32))
    fingerprint_calls.clear()
    solver.solve_batch(rhs)
    solver.solve(rhs[0])
    assert not solver.is_stale()
    assert fingerprint_calls == []


def test_dense_solves_hash_once_per_call(fingerprint_calls):
    matrix = random_matrix_with_condition_number(8, 3.0, rng=4)
    matrix.setflags(write=False)      # read-only dense inputs are hashed too
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="ideal")
    rhs = np.random.default_rng(2).standard_normal((2, 8))
    fingerprint_calls.clear()
    solver.solve_batch(rhs)
    assert fingerprint_calls == ["ndarray"]
    solver.solve(rhs[0])
    assert fingerprint_calls == ["ndarray", "ndarray"]


def test_structured_solvers_sharing_a_backend_still_detect_it():
    backend = IdealPolynomialBackend()
    op_a = BandedOperator.toeplitz(16, {0: 4.0, 1: -1.0, -1: -1.0})
    op_b = BandedOperator.toeplitz(16, {0: 5.0, 1: -1.0, -1: -1.0})
    rhs = np.random.default_rng(3).standard_normal(16)
    solver_a = QSVTLinearSolver(op_a, epsilon_l=1e-2, backend=backend)
    solver_b = QSVTLinearSolver(op_b, epsilon_l=1e-2, backend=backend)
    with pytest.raises(StaleSynthesisError):
        solver_a.solve(rhs)
    solver_b.solve(rhs)
    solver_a.recompile()
    solver_a.solve(rhs)
    with pytest.raises(StaleSynthesisError):
        solver_b.solve_batch(rhs[None])


# ---------------------------------------------------------------------- #
# frozen storage: aliases are copied, shared-memory views are adopted
# ---------------------------------------------------------------------- #
def test_read_only_view_of_a_writable_array_is_copied():
    diagonal = np.full(16, 4.0)
    view = diagonal.view()
    view.setflags(write=False)
    nested = view[:]                  # read-only view of a read-only view
    operator = BandedOperator(16, {0: nested, 1: np.full(15, -1.0),
                                   -1: np.full(15, -1.0)})
    assert not np.shares_memory(operator.band(0), diagonal)
    solver = QSVTLinearSolver(operator, epsilon_l=1e-2)
    rhs = np.random.default_rng(6).standard_normal(16)
    before = solver.solve(rhs).x
    diagonal[:] = 9.0                 # the caller's array changes ...
    after = solver.solve(rhs).x       # ... the operator does not
    assert np.array_equal(before, after)
    assert np.all(operator.band(0) == 4.0)


def test_frozen_array_without_writable_owner_is_adopted():
    diagonal = np.full(8, 2.0)
    diagonal.setflags(write=False)
    operator = BandedOperator(8, {0: diagonal})
    assert operator.band(0) is diagonal
    again = BandedOperator(8, {0: operator.band(0)[:]})
    assert np.shares_memory(again.band(0), diagonal)


def test_attached_operator_shares_its_segment():
    operator = BandedOperator(32, {0: np.linspace(3.0, 5.0, 32),
                                   1: np.full(31, -1.0), -1: np.full(31, -1.0)})
    with sharedmem.SharedMatrixRegistry() as registry:
        handle = registry.publish(operator)
        attached = sharedmem.attach_matrix(handle)
        segment, _ = sharedmem._ATTACHED[handle.segment]
        raw = np.ndarray((segment.size,), dtype=np.uint8, buffer=segment.buf)
        try:
            for offset in attached.offsets:
                assert np.shares_memory(attached.band(offset), raw)
            assert np.array_equal(attached.matvec(np.ones(32)),
                                  operator.matvec(np.ones(32)))
        finally:
            del raw, attached
            sharedmem.detach_all()


# ---------------------------------------------------------------------- #
# set-up savings
# ---------------------------------------------------------------------- #
def test_describe_reuses_the_calibrated_error(monkeypatch):
    evaluations = []
    original = InversePolynomial.apply_inverse

    def counting(self, x):
        evaluations.append(np.size(x))
        return original(self, x)

    monkeypatch.setattr(InversePolynomial, "apply_inverse", counting)
    backend = IdealPolynomialBackend()
    backend.prepare(random_matrix_with_condition_number(8, 20.0, rng=3),
                    epsilon_l=1e-3)
    evaluations.clear()
    achieved = backend.describe()["achieved_epsilon_l"]
    assert evaluations == []
    poly = backend.polynomial
    grid = np.linspace(1.0 / poly.kappa, 1.0, 2001)
    assert achieved == float(np.max(np.abs(grid * original(poly, grid) - 1.0)))
    # another grid is computed, not served from the memo
    poly.relative_inverse_error(num_points=101)
    assert evaluations == [101]


@pytest.mark.parametrize("kappa,epsilon,degree", [
    (3.0, 1e-2, 31), (10.0, 1e-2, 107), (100.0, 1e-3, 1629),
    (300.0, 1e-3, 5207)])
def test_cosine_grid_maxima_match_chebval(kappa, epsilon, degree):
    # the circuit backend's polynomials for a pinned kappa (margin 1.05)
    poly = _calibrated_polynomial(1.05 * kappa, epsilon, max_norm=0.9,
                                  calibrate=True,
                                  error_convention="conservative")
    assert poly.degree == degree
    coeffs = poly.coefficients
    points = 8 * coeffs.shape[0]
    grid = np.cos(np.linspace(0.0, np.pi, points))
    reference = np.polynomial.chebyshev.chebval(grid, coeffs)
    values = evaluate_chebyshev_on_cosine_grid(coeffs, points)
    np.testing.assert_allclose(values, reference, rtol=0, atol=1e-12)
    expected = float(np.max(np.abs(reference)))
    assert abs(max_abs_on_interval(coeffs) - expected) <= 1e-14 * expected


def test_cosine_grid_rejects_aliasing():
    with pytest.raises(ValueError):
        evaluate_chebyshev_on_cosine_grid(np.ones(5), 4)
    assert np.allclose(evaluate_chebyshev_on_cosine_grid([0.0, 1.0], 2),
                       [1.0, -1.0])
