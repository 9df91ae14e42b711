"""Quantum Signal Processing / Quantum Singular Value Transformation machinery.

This sub-package implements everything between "a condition number and a
target accuracy" and "a quantum circuit that applies an approximate matrix
inverse":

* Chebyshev-series utilities (:mod:`repro.qsp.chebyshev`);
* the odd polynomial approximation of ``1/x`` from Eq. (4) of the paper
  (:mod:`repro.qsp.inverse_polynomial`) and the even rectangle window used to
  tame it inside the spectral gap (:mod:`repro.qsp.rectangle`);
* a symmetric-QSP phase-factor solver (:mod:`repro.qsp.phase_factors`):
  Newton with an analytic Jacobian, following Dong et al. (Ref. [13]);
* the QSVT circuit builder implementing the alternating phase modulation of
  Eqs. (2)–(3) (:mod:`repro.qsp.qsvt_circuit`), together with the conversion
  between the Wx QSP convention used by the solver and the
  projector-controlled-phase convention used by the circuit;
* validation helpers comparing the circuit against the exact singular-value
  transformation (:mod:`repro.qsp.validation`).
"""

from .chebyshev import (
    chebyshev_coefficients_of_function,
    evaluate_chebyshev,
    parity_of_series,
    scale_series_to_max,
    truncate_series,
)
from .inverse_polynomial import (
    InversePolynomial,
    build_inverse_polynomial,
    inverse_polynomial_degree,
    inverse_polynomial_parameters,
    raw_inverse_coefficients,
)
from .rectangle import rectangle_polynomial, window_inverse_polynomial
from .phase_factors import PhaseFactorResult, qsp_polynomial_values, solve_qsp_phases
from .qsvt_circuit import (
    QSVTProgram,
    apply_qsvt_to_vector,
    apply_qsvt_to_vectors,
    build_qsvt_circuit,
    compile_qsvt_program,
    projector_phase_gate,
    wx_to_circuit_phases,
)
from .validation import apply_polynomial_via_svd, qsvt_transform_error

__all__ = [
    "evaluate_chebyshev",
    "chebyshev_coefficients_of_function",
    "truncate_series",
    "parity_of_series",
    "scale_series_to_max",
    "InversePolynomial",
    "build_inverse_polynomial",
    "inverse_polynomial_parameters",
    "inverse_polynomial_degree",
    "raw_inverse_coefficients",
    "rectangle_polynomial",
    "window_inverse_polynomial",
    "PhaseFactorResult",
    "solve_qsp_phases",
    "qsp_polynomial_values",
    "wx_to_circuit_phases",
    "build_qsvt_circuit",
    "projector_phase_gate",
    "QSVTProgram",
    "compile_qsvt_program",
    "apply_qsvt_to_vector",
    "apply_qsvt_to_vectors",
    "apply_polynomial_via_svd",
    "qsvt_transform_error",
]
