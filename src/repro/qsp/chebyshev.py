"""Chebyshev-series utilities.

The inverse-function approximation of Eq. (4) is expressed in the Chebyshev
basis (the paper stresses that this avoids Runge's phenomenon for the large
degrees involved), so all polynomial manipulation in this package is done on
Chebyshev coefficient vectors ``c`` with the convention
``P(x) = Σ_k c[k] T_k(x)``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "evaluate_chebyshev",
    "evaluate_chebyshev_operator",
    "chebyshev_coefficients_of_function",
    "chebyshev_nodes",
    "truncate_series",
    "parity_of_series",
    "enforce_parity",
    "scale_series_to_max",
    "max_abs_on_interval",
]


def evaluate_chebyshev(coefficients, x) -> np.ndarray:
    """Evaluate ``Σ_k c_k T_k(x)`` (Clenshaw recurrence via numpy)."""
    return _cheb.chebval(np.asarray(x, dtype=float), np.asarray(coefficients, dtype=float))


def evaluate_chebyshev_operator(coefficients, apply, vector) -> np.ndarray:
    """Matrix-free Clenshaw evaluation of ``P(M) v`` with ``P = Σ_k c_k T_k``.

    ``apply`` is the only access to ``M`` — one matrix-vector (or, when
    ``vector`` is a column stack, matrix-matrix) product per Chebyshev term,
    so the cost is ``degree × O(nnz)`` instead of the dense ``O(N³)`` SVD
    route.  For a symmetric ``M`` with spectrum in ``[-1, 1]`` this equals
    applying ``P`` to the eigenvalues, which is exactly the singular-value
    transformation the ideal backend performs — see
    :meth:`repro.core.backends.IdealPolynomialBackend`.

    The recurrence ``b_k = c_k v + 2 M b_{k+1} - b_{k+2}`` runs in place on
    buffers owned by this function (the two recurrence terms, ``c_k v`` and
    ``2 M b``), performing the same floating-point operations in the same
    order as the textbook expression.  ``apply``'s result is only read, so
    ``apply`` may return a view of its argument or of its own storage.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    v = np.asarray(vector, dtype=float)
    if coeffs.shape[0] == 1:
        return coeffs[0] * v
    b1 = np.zeros_like(v)
    b2 = np.zeros_like(v)
    scaled = np.empty_like(v)
    doubled = np.empty_like(v)
    for k in range(coeffs.shape[0] - 1, 0, -1):
        np.multiply(coeffs[k], v, out=scaled)
        np.multiply(2.0, apply(b1), out=doubled)
        scaled += doubled
        # b_k overwrites b_{k+2}, which the step no longer needs
        np.subtract(scaled, b2, out=b2)
        b1, b2 = b2, b1
    np.multiply(coeffs[0], v, out=scaled)
    scaled += apply(b1)
    scaled -= b2
    return scaled


def chebyshev_nodes(count: int) -> np.ndarray:
    """Chebyshev points of the first kind ``cos(π(2k+1)/(2M))``, ``k = 0..M-1``."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(count)
    return np.cos(np.pi * (2 * k + 1) / (2 * count))


def chebyshev_coefficients_of_function(f: Callable[[np.ndarray], np.ndarray],
                                       degree: int, *, parity: int | None = None
                                       ) -> np.ndarray:
    """Chebyshev coefficients of ``f`` up to ``degree`` (exact for polynomials).

    Uses the discrete orthogonality of Chebyshev polynomials on ``degree + 1``
    first-kind nodes, i.e. the transform is exact whenever ``f`` is a
    polynomial of degree at most ``degree``; for smooth non-polynomial ``f``
    it returns the interpolant's coefficients.

    Parameters
    ----------
    parity:
        If 0 or 1, zero out the coefficients of the opposite parity (useful
        when the target is known to be even/odd and tiny asymmetries should
        be removed).
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    nodes = chebyshev_nodes(degree + 1)
    values = np.asarray(f(nodes), dtype=float)
    coeffs = _dct_coefficients(values, nodes, degree)
    if parity is not None:
        coeffs = enforce_parity(coeffs, parity)
    return coeffs


def _dct_coefficients(values: np.ndarray, nodes: np.ndarray, degree: int) -> np.ndarray:
    """Discrete Chebyshev transform on first-kind nodes."""
    m = nodes.shape[0]
    vander = _cheb.chebvander(nodes, degree)          # shape (m, degree+1)
    coeffs = (2.0 / m) * (vander.T @ values)
    coeffs[0] *= 0.5
    return coeffs


def truncate_series(coefficients, tolerance: float) -> np.ndarray:
    """Drop trailing coefficients whose cumulative absolute sum is below ``tolerance``.

    The returned series differs from the input by at most ``tolerance`` in
    sup-norm on ``[-1, 1]`` (since ``|T_k| <= 1``).
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    tail = np.cumsum(np.abs(coeffs[::-1]))[::-1]
    keep = np.nonzero(tail > tolerance)[0]
    if keep.size == 0:
        return np.zeros(1)
    return coeffs[: keep[-1] + 1].copy()


def parity_of_series(coefficients, *, tolerance: float = 1e-12) -> int | None:
    """Return 0 (even), 1 (odd) or ``None`` when the series has no definite parity."""
    coeffs = np.asarray(coefficients, dtype=float)
    even_mass = float(np.abs(coeffs[0::2]).sum())
    odd_mass = float(np.abs(coeffs[1::2]).sum())
    if odd_mass <= tolerance * max(1.0, even_mass):
        return 0
    if even_mass <= tolerance * max(1.0, odd_mass):
        return 1
    return None


def enforce_parity(coefficients, parity: int) -> np.ndarray:
    """Zero out the coefficients of the opposite parity."""
    coeffs = np.asarray(coefficients, dtype=float).copy()
    if parity not in (0, 1):
        raise ValueError("parity must be 0 or 1")
    coeffs[(1 - parity)::2] = 0.0
    return coeffs


def max_abs_on_interval(coefficients, *, oversampling: int = 8) -> float:
    """Maximum of ``|P(x)|`` over ``[-1, 1]`` on a dense Chebyshev grid.

    The grid holds ``oversampling * (degree + 1)`` points, enough to localise
    the extrema of a degree-``d`` polynomial to high accuracy for the purpose
    of rescaling it below one.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    degree = coeffs.shape[0] - 1
    grid = np.cos(np.linspace(0.0, np.pi, max(oversampling * (degree + 1), 64)))
    return float(np.max(np.abs(evaluate_chebyshev(coeffs, grid))))


def scale_series_to_max(coefficients, max_norm: float, *, oversampling: int = 8
                        ) -> tuple[np.ndarray, float]:
    """Rescale a series so its sup-norm on ``[-1, 1]`` equals ``max_norm``.

    Returns ``(scaled_coefficients, factor)`` with
    ``scaled = factor * coefficients``.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    current = max_abs_on_interval(coefficients, oversampling=oversampling)
    if current == 0.0:
        return np.asarray(coefficients, dtype=float).copy(), 1.0
    factor = max_norm / current
    return np.asarray(coefficients, dtype=float) * factor, factor
