"""Odd Chebyshev approximation of the inverse function (Eq. (4) of the paper).

Following Childs–Kothari–Somma and Gilyén et al. (Ref. [15]), the function

.. math::  f_{\\varepsilon,\\kappa}(x) = \\frac{1 - (1 - x^2)^b}{x},
           \\qquad b(\\varepsilon, \\kappa) = \\lceil \\kappa^2 \\log(\\kappa/\\varepsilon) \\rceil

is an ``ε``-approximation of ``1/x`` on ``[-1, -1/κ] ∪ [1/κ, 1]`` and admits
the explicit odd Chebyshev expansion

.. math::  f = 4 \\sum_{j=0}^{b-1} (-1)^j
           \\Big[ 2^{-2b} \\sum_{i=j+1}^{b} \\binom{2b}{b+i} \\Big] T_{2j+1}(x),

which can be truncated after ``D(ε, κ) = ⌈\\sqrt{b \\log(4b/ε)}⌉`` terms at the
cost of an extra ``ε`` error (Eq. (4)).  The bracketed coefficient is the
binomial tail probability ``Pr[X ≥ b+j+1]`` for ``X ~ Binomial(2b, 1/2)``,
which is what :func:`raw_inverse_coefficients` evaluates (via
``scipy.stats.binom.sf``) so the construction stays numerically stable for the
very large ``b`` arising at large condition numbers.

The resulting polynomial has magnitude up to ``O(√b)`` near the origin, so for
QSVT use it must be rescaled below one; :class:`InversePolynomial` records the
rescaling factor so the solver can undo it classically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ..exceptions import DimensionError
from .chebyshev import evaluate_chebyshev, max_abs_on_interval, truncate_series

__all__ = [
    "inverse_polynomial_parameters",
    "inverse_polynomial_degree",
    "raw_inverse_coefficients",
    "InversePolynomial",
    "build_inverse_polynomial",
    "polynomial_error_from_solution_accuracy",
]


def inverse_polynomial_parameters(kappa: float, epsilon: float) -> tuple[int, int]:
    """Return ``(b, D)`` of Eq. (4) for condition number ``κ`` and error ``ε``."""
    if kappa <= 1.0:
        kappa = 1.0 + 1e-12
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    b = int(np.ceil(kappa**2 * np.log(kappa / epsilon)))
    b = max(b, 1)
    d_trunc = int(np.ceil(np.sqrt(b * np.log(4.0 * b / epsilon))))
    d_trunc = min(max(d_trunc, 1), b)
    return b, d_trunc


def inverse_polynomial_degree(kappa: float, epsilon: float) -> int:
    """Degree ``2D + 1`` of the truncated inverse polynomial."""
    _, d_trunc = inverse_polynomial_parameters(kappa, epsilon)
    return 2 * d_trunc + 1


def raw_inverse_coefficients(kappa: float, epsilon: float,
                             *, max_degree: int | None = None) -> np.ndarray:
    """Chebyshev coefficients of the truncated expansion of ``f_{ε,κ}``.

    Returns the full coefficient vector (even entries are zero); the
    polynomial approximates ``1/x`` on ``[-1,-1/κ] ∪ [1/κ,1]`` with error at
    most ``2ε`` (``ε`` from the integral representation plus ``ε`` from the
    truncation).

    Parameters
    ----------
    max_degree:
        Optional hard cap on the polynomial degree (used by degree-budgeted
        constructions); the truncation error then grows accordingly.
    """
    b, d_trunc = inverse_polynomial_parameters(kappa, epsilon)
    if max_degree is not None:
        if max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        d_trunc = min(d_trunc, max(0, (max_degree - 1) // 2))
    j = np.arange(d_trunc + 1)
    # 2^{-2b} * sum_{i=j+1}^{b} C(2b, b+i) = Pr[X >= b + j + 1], X ~ Bin(2b, 1/2)
    tail = stats.binom.sf(b + j, 2 * b, 0.5)
    magnitudes = 4.0 * ((-1.0) ** j) * tail
    coefficients = np.zeros(2 * d_trunc + 2)
    coefficients[1::2] = magnitudes
    return coefficients


def polynomial_error_from_solution_accuracy(epsilon_l: float, kappa: float,
                                            convention: str = "conservative") -> float:
    """Map a target solution accuracy ``ε_l`` to a polynomial approximation error.

    Sec. III-A of the paper states that a relative solution error of order
    ``ε_l`` requires approximating the inverse on the spectral domain with
    error ``ε' = O(ε_l / κ)``; the ``"conservative"`` convention uses exactly
    ``ε_l / (2κ)``, while ``"direct"`` uses ``ε_l / 2`` (sufficient when the
    matrix is normalised so that ``σ_max = 1``, see the module docstring of
    :mod:`repro.core.qsvt_solver`).
    """
    if convention == "conservative":
        return float(epsilon_l) / (2.0 * float(kappa))
    if convention == "direct":
        return float(epsilon_l) / 2.0
    raise ValueError("convention must be 'conservative' or 'direct'")


#: points of the default ``[1/κ, 1]`` grid of
#: :meth:`InversePolynomial.relative_inverse_error` (the memoised one).
_ERROR_GRID_POINTS = 2001


@dataclass(frozen=True, eq=False)
class InversePolynomial:
    """A (possibly rescaled) odd polynomial approximation of ``1/x``.

    The stored polynomial satisfies ``P(x) ≈ inverse_scale / x`` on
    ``[-1, -1/κ] ∪ [1/κ, 1]`` and ``|P(x)| <= max_norm`` on ``[-1, 1]`` when a
    rescaling was requested.

    Attributes
    ----------
    coefficients:
        Chebyshev coefficients of the stored polynomial.
    kappa:
        Condition number the polynomial was built for.
    target_error:
        Approximation error ``ε`` requested for the *unscaled* inverse.
    b_parameter:
        The exponent ``b(ε, κ)`` of Eq. (4).
    inverse_scale:
        Factor ``s`` such that ``P(x) ≈ s / x`` on the spectral domain;
        dividing the output of the singular value transformation by ``s``
        recovers the unscaled inverse.
    max_norm:
        Requested sup-norm bound (``None`` when no rescaling was applied).

    Two polynomials are equal when their coefficients are
    ``np.array_equal`` and their public parameters are equal; the cached
    private fields do not take part, and equal polynomials hash equally.
    """

    coefficients: np.ndarray
    kappa: float
    target_error: float
    b_parameter: int
    inverse_scale: float
    max_norm: float | None = None
    _max_abs: float = field(default=float("nan"), repr=False)
    _relative_error: float = field(default=float("nan"), init=False,
                                   repr=False, compare=False)

    # ------------------------------------------------------------------ #
    @property
    def degree(self) -> int:
        """Polynomial degree (index of the last nonzero Chebyshev coefficient)."""
        coeffs = np.asarray(self.coefficients)
        nonzero = np.nonzero(np.abs(coeffs) > 0)[0]
        return int(nonzero[-1]) if nonzero.size else 0

    @property
    def parity(self) -> int:
        """Parity of the polynomial (always 1: the inverse approximation is odd)."""
        return 1

    @property
    def num_block_encoding_calls(self) -> int:
        """Calls to the block-encoding (and its adjoint) per QSVT application."""
        return self.degree

    def evaluate(self, x) -> np.ndarray:
        """Evaluate ``P(x)``."""
        return evaluate_chebyshev(self.coefficients, x)

    def apply_inverse(self, x) -> np.ndarray:
        """Evaluate the *unscaled* approximate inverse ``P(x) / inverse_scale``."""
        return self.evaluate(x) / self.inverse_scale

    def max_abs(self) -> float:
        """Maximum of ``|P|`` on ``[-1, 1]`` (computed once, then cached)."""
        if np.isnan(self._max_abs):
            object.__setattr__(self, "_max_abs", max_abs_on_interval(self.coefficients))
        return self._max_abs

    def relative_inverse_error(self, *, num_points: int = _ERROR_GRID_POINTS
                               ) -> float:
        """Measured ``max |x · P(x)/s − 1|`` over ``[1/κ, 1]``.

        This is the *achieved* relative accuracy of the approximate inverse on
        the spectral domain — the quantity that plays the role of ``ε_l`` in
        the refinement analysis (used by the Figure-4 benchmark where the
        paper lets the construction determine ``ε_l``).  The default-grid
        value is computed once, then cached like :meth:`max_abs`.
        """
        if num_points == _ERROR_GRID_POINTS and not np.isnan(self._relative_error):
            return self._relative_error
        grid = np.linspace(1.0 / self.kappa, 1.0, num_points)
        values = self.apply_inverse(grid)
        error = float(np.max(np.abs(grid * values - 1.0)))
        if num_points == _ERROR_GRID_POINTS:
            object.__setattr__(self, "_relative_error", error)
        return error

    def _parameters(self) -> tuple:
        return (self.kappa, self.target_error, self.b_parameter,
                self.inverse_scale, self.max_norm)

    def __eq__(self, other) -> bool:
        if not isinstance(other, InversePolynomial):
            return NotImplemented
        return (self._parameters() == other._parameters()
                and np.array_equal(self.coefficients, other.coefficients))

    def __hash__(self) -> int:
        # the coefficient count, not the bytes: -0.0 == 0.0 must hash alike
        return hash(self._parameters() + (np.size(self.coefficients),))


def build_inverse_polynomial(kappa: float, epsilon: float, *,
                             max_norm: float | None = None,
                             truncation_tolerance: float | None = None,
                             max_degree: int | None = None) -> InversePolynomial:
    """Construct the Eq. (4) polynomial, optionally rescaled for QSVT use.

    Parameters
    ----------
    kappa:
        Condition number of the (sub-normalised) matrix; the polynomial
        approximates the inverse on ``[-1, -1/κ] ∪ [1/κ, 1]``.
    epsilon:
        Approximation error of the *unscaled* inverse on that domain.
    max_norm:
        When given (e.g. 0.9), rescale the polynomial so that its sup-norm on
        ``[-1, 1]`` equals ``max_norm`` — required before feeding it to the
        QSP phase-factor solver.  ``None`` keeps the unscaled polynomial
        (``inverse_scale = 1``), which is what the ideal-polynomial backend
        uses.
    truncation_tolerance:
        Extra coefficient truncation applied after the analytic construction;
        defaults to ``epsilon / 10``.
    max_degree:
        Optional hard cap on the degree (degree-budgeted construction).
    """
    if kappa < 1.0:
        raise DimensionError("kappa must be >= 1")
    b, _ = inverse_polynomial_parameters(kappa, epsilon)
    coefficients = raw_inverse_coefficients(kappa, epsilon, max_degree=max_degree)
    tol = truncation_tolerance if truncation_tolerance is not None else epsilon / 10.0
    if tol > 0:
        coefficients = truncate_series(coefficients, tol)
        if coefficients.shape[0] % 2 == 1:
            # keep an odd degree (trailing even coefficient slot is zero anyway)
            coefficients = np.append(coefficients, 0.0)
    if max_norm is not None:
        current_max = max_abs_on_interval(coefficients)
        factor = max_norm / current_max
        coefficients = coefficients * factor
        scale = factor
        stored_max = max_norm
    else:
        scale = 1.0
        stored_max = float("nan")
    poly = InversePolynomial(
        coefficients=np.asarray(coefficients, dtype=float),
        kappa=float(kappa),
        target_error=float(epsilon),
        b_parameter=int(b),
        inverse_scale=float(scale),
        max_norm=max_norm,
        _max_abs=stored_max,
    )
    return poly
