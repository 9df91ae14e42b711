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
import scipy.fft
from numpy.polynomial import chebyshev as _cheb

__all__ = [
    "evaluate_chebyshev",
    "evaluate_chebyshev_operator",
    "evaluate_chebyshev_on_cosine_grid",
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


def evaluate_chebyshev_operator(coefficients, apply, vector, *,
                                scale: float = 1.0) -> np.ndarray:
    """Matrix-free Clenshaw evaluation of ``P(s M) v`` with ``P = Σ_k c_k T_k``.

    ``apply`` is the only access to ``M`` — one matrix-vector (or, when
    ``vector`` is a column stack, matrix-matrix) product per Chebyshev term,
    so the cost is ``degree × O(nnz)`` instead of the dense ``O(N³)`` SVD
    route.  ``scale`` is ``s``: the ideal backend passes ``1/α`` and an
    unscaled ``matmat``.  For a symmetric ``s M`` with spectrum in
    ``[-1, 1]`` this equals applying ``P`` to the eigenvalues, which is
    exactly the singular-value transformation the ideal backend performs —
    see :meth:`repro.core.backends.IdealPolynomialBackend`.

    The recurrence ``b_k = c_k v + 2 s M b_{k+1} - b_{k+2}`` runs in place
    on buffers owned by this function and rounds exactly like the textbook
    expression with ``s M b`` formed first, by three exact identities:

    * ``2 s M b`` is one multiply by ``(2 s)``; scaling by two is exact in
      binary floating point, so ``fl(y · 2s) = 2 fl(y · s)``;
    * a term with ``c_k == 0.0`` (every even term of the odd Eq.-(4)
      polynomial) skips the ``c_k v`` product and its add, as
      ``0 · v + w = w`` up to the sign of an exact zero;
    * the recurrence starts at ``b_d = c_d v``: with ``b_{d+1} = b_{d+2} =
      0`` the textbook first step only adds exact zeros (for a finite
      ``M``), so a degree-``d`` series costs exactly ``d`` calls of
      ``apply``.

    ``apply``'s result is only read, so ``apply`` may return a view of its
    argument or of its own storage.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    v = np.asarray(vector, dtype=float)
    if coeffs.shape[0] == 1:
        return coeffs[0] * v
    scale = float(scale)
    b1 = coeffs[-1] * v
    b2 = np.zeros_like(v)
    scaled = np.empty_like(v)
    doubled = np.empty_like(v)
    for k in range(coeffs.shape[0] - 2, 0, -1):
        np.multiply(apply(b1), 2.0 * scale, out=doubled)
        if coeffs[k] != 0.0:
            np.multiply(coeffs[k], v, out=scaled)
            doubled += scaled
        # b_k overwrites b_{k+2}, which the step no longer needs
        np.subtract(doubled, b2, out=b2)
        b1, b2 = b2, b1
    last = apply(b1)
    if scale != 1.0:
        np.multiply(last, scale, out=doubled)
        last = doubled
    if coeffs[0] != 0.0:
        np.multiply(coeffs[0], v, out=scaled)
        scaled += last
        last = scaled
    return np.subtract(last, b2, out=b2)


def evaluate_chebyshev_on_cosine_grid(coefficients, points: int) -> np.ndarray:
    """``P(cos(πj/(M−1)))`` for ``j = 0..M−1`` (``M = points``), in ``O(M log M)``.

    On that grid ``T_k(x_j) = cos(πjk/(M−1))``, so the values are one
    type-I DCT of the zero-padded coefficients (end coefficients doubled,
    result halved — both exact) instead of ``M`` Clenshaw evaluations of
    ``O(d)`` each.  ``points`` must be at least the number of
    coefficients, so that no term aliases.
    """
    coeffs = np.asarray(coefficients, dtype=float)
    if points < max(2, coeffs.shape[0]):
        raise ValueError("points must be >= 2 and >= the number of coefficients")
    padded = np.zeros(points)
    padded[:coeffs.shape[0]] = coeffs
    padded[0] *= 2.0
    padded[-1] *= 2.0
    return 0.5 * scipy.fft.dct(padded, type=1)


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

    The grid ``cos(πj/(M−1))`` holds ``M = oversampling * (degree + 1)``
    points (at least 64), enough to localise the extrema of a degree-``d``
    polynomial to high accuracy for the purpose of rescaling it below one;
    its values are one DCT (:func:`evaluate_chebyshev_on_cosine_grid`).
    """
    coeffs = np.asarray(coefficients, dtype=float)
    points = max(oversampling * coeffs.shape[0], 64)
    return float(np.max(np.abs(evaluate_chebyshev_on_cosine_grid(coeffs, points))))


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
