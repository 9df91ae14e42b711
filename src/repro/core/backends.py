"""QPU backends for the QSVT linear solver.

A backend owns everything that the paper's Sec. III-A calls "quantum circuit
synthesis": given the matrix ``A`` and the requested inner accuracy ``ε_l`` it
prepares (once) the block-encoding of ``A†``, the inverse polynomial and —
for the circuit backend — the QSP phase factors, and it then answers repeated
``apply_inverse_batch(rhs_batch)`` requests (a single right-hand side is a
batch of one), which is exactly the pattern of Algorithm 2
(the compiled routines are reused across refinement iterations, only the
right-hand side changes).

Three backends are provided:

* :class:`CircuitQSVTBackend` — the full pipeline: block-encoding circuit,
  tree state preparation, QSVT alternating phase modulation, ancilla
  post-selection, read-out.  This is the faithful (and most expensive)
  simulation; it is practical for the small systems and moderate polynomial
  degrees of the paper's Sec. IV (``N = 16``, ``κ ≲ 30``).
* :class:`IdealPolynomialBackend` — applies the *same* Eq.-(4) polynomial to
  the singular values directly (Clenshaw evaluation on the SVD).  This is the
  noiseless limit of the circuit backend (they agree to ~1e-12, see the
  integration tests) and is what the large-κ experiments of Fig. 4/5 use,
  mirroring the paper's own reliance on extrapolation where simulation becomes
  intractable.
* :class:`ExactInverseBackend` — returns the exact solution direction
  perturbed by a controlled relative error ``ε_l``; a surrogate used by the
  convergence-theory tests (it realises the hypothesis of Theorem III.1
  exactly).
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass, field

import numpy as np

from ..blockencoding import build_block_encoding
from ..exceptions import BackendError
from ..qsp import build_inverse_polynomial, solve_qsp_phases
from ..qsp.inverse_polynomial import (
    InversePolynomial,
    polynomial_error_from_solution_accuracy,
)
from ..qsp.qsvt_circuit import QSVTProgram, compile_qsvt_program
from ..qsp.chebyshev import evaluate_chebyshev, evaluate_chebyshev_operator
from ..quantum.plan import ExecutionPlan, PlanOp
from ..utils import (
    as_generator,
    as_vector,
    check_square,
    is_power_of_two,
    matrix_fingerprint,
    payload_nbytes,
)
from .sampling import SamplingModel

__all__ = [
    "BackendApplication",
    "QSVTBackend",
    "CircuitQSVTBackend",
    "IdealPolynomialBackend",
    "ExactInverseBackend",
    "make_backend",
]


@dataclass(frozen=True)
class BackendApplication:
    """Raw outcome of one backend ``apply_inverse`` call.

    Attributes
    ----------
    direction:
        Unit-norm estimate of the solution direction ``η``.
    block_encoding_calls:
        Block-encoding (and adjoint) calls consumed by the request.
    polynomial_degree:
        Degree of the inverse polynomial used.
    success_probability:
        Ancilla post-selection probability (1.0 for the ideal backends).
    shots:
        Measurement samples consumed by the read-out (0 if exact).
    """

    direction: np.ndarray
    block_encoding_calls: int
    polynomial_degree: int
    success_probability: float = 1.0
    shots: int = 0


class QSVTBackend(abc.ABC):
    """Interface shared by every backend.

    A backend is prepared once and applied many times.  The solver
    (:class:`repro.core.qsvt_solver.QSVTLinearSolver`) calls only
    :meth:`apply_inverse_batch`, with a ``(B, N)`` stack: a single solve is
    a batch of one.  Besides the abstract ``prepare`` / ``apply_inverse``
    pair, the base class provides three concrete services shared by all
    implementations:

    * **synthesis fingerprinting** — ``prepare`` implementations call
      :meth:`_record_synthesis` on the matrix they were handed so that
      :meth:`is_stale` can later detect a matrix that was mutated *in place*
      after synthesis (same object, new bytes).
      :class:`repro.core.qsvt_solver.QSVTLinearSolver` adopts that digest
      (hashing only when a backend left it unset) and turns the check into
      an explicit error + ``recompile()`` path, and
      :class:`repro.engine.cache.CompiledSolverCache` keys its entries on the
      same fingerprint, so the two invalidation mechanisms agree by
      construction.
    * **payload helpers** — :meth:`_export_shared` and
      :meth:`_import_shared` write and restore the half of the
      compiled-synthesis payload that the circuit and ideal backends share
      (backend name, ``ε_l``, ``κ_eff``, the Eq.-(4) polynomial, and the
      dense ``matrix`` or the structured ``operator_state``); each backend's
      ``export_payload`` / ``import_payload`` adds only its own half.
    * **batched application** — :meth:`apply_inverse_batch` answers ``B``
      right-hand sides against the *same* compiled synthesis.  The default
      loops over :meth:`apply_inverse`, so backends that answer one
      right-hand side at a time (the exact-inverse surrogate, third-party
      backends) work unchanged.  The circuit backend (one plan sweep via
      :meth:`repro.qsp.qsvt_circuit.QSVTProgram.apply_batch`) and the ideal
      backend (one dense contraction or one Clenshaw recurrence) implement
      only the batch body and answer ``apply_inverse`` as a batch of one.
    """

    #: human-readable backend name (used in reports).
    name: str = "backend"

    #: fingerprint of the matrix the current synthesis was compiled for
    #: (``None`` before the first ``prepare``).
    synthesis_fingerprint: str | None = None

    @abc.abstractmethod
    def prepare(self, matrix, *, epsilon_l: float, kappa: float | None = None) -> None:
        """One-off "circuit synthesis" for the given matrix and inner accuracy.

        Implementations should finish with ``self._record_synthesis(matrix)``
        on the matrix they were handed, so that :meth:`is_stale` works for
        direct backend use and the solver need not hash it again;
        :class:`~repro.core.qsvt_solver.QSVTLinearSolver` clears the
        fingerprint before calling ``prepare`` and records it itself when a
        subclass did not, so subclasses that forget still work through the
        solver."""

    @abc.abstractmethod
    def apply_inverse(self, rhs) -> BackendApplication:
        """Return an estimate of the direction of ``A^{-1} rhs``."""

    # ------------------------------------------------------------------ #
    def apply_inverse_batch(self, rhs_batch) -> list[BackendApplication]:
        """Apply the compiled inverse to a stack of right-hand sides.

        ``rhs_batch`` is array-like of shape ``(B, N)``; one
        :class:`BackendApplication` is returned per row.  The base
        implementation loops over :meth:`apply_inverse`; subclasses override
        it when they can share work across the batch.
        """
        batch = np.atleast_2d(np.asarray(rhs_batch, dtype=float))
        return [self.apply_inverse(batch[i]) for i in range(batch.shape[0])]

    # ------------------------------------------------------------------ #
    def _record_synthesis(self, matrix) -> None:
        """Remember which matrix bytes the synthesis was compiled against."""
        self.synthesis_fingerprint = matrix_fingerprint(matrix)

    def payload_bytes(self) -> int:
        """Bytes of compiled artefacts this backend keeps alive.

        Used by :class:`repro.engine.cache.CompiledSolverCache` for
        byte-accounted eviction.  The base implementation counts the stored
        matrix — ``nnz_bytes()`` for structured operators, ``nbytes`` for
        dense arrays, so banded entries are no longer charged the dense
        ``N²·8`` — and backends with heavier compiled state (execution
        plans, SVD factors, phase vectors) extend it.
        """
        matrix = getattr(self, "matrix", None)
        return payload_nbytes(matrix) if matrix is not None else 0

    def is_stale(self, matrix) -> bool:
        """True when ``matrix`` no longer matches the compiled synthesis.

        Always true before the first ``prepare``.  The check hashes the matrix
        bytes (microseconds at paper scale), so callers can afford it on every
        solve.
        """
        if self.synthesis_fingerprint is None:
            return True
        return matrix_fingerprint(matrix) != self.synthesis_fingerprint

    # ------------------------------------------------------------------ #
    # compiled-payload export / import (persistent synthesis store)
    # ------------------------------------------------------------------ #
    def export_payload(self) -> dict:
        """Serialisable snapshot of the compiled synthesis.

        Returns ``{"meta": <JSON-able dict>, "arrays": {name: ndarray}}`` —
        everything a fresh backend instance needs to answer ``apply_inverse``
        without re-running block-encoding / polynomial / phase synthesis.
        :class:`repro.engine.store.SynthesisStore` spills this to disk keyed
        by matrix fingerprint; backends whose synthesis is not worth
        persisting (e.g. the exact-inverse surrogate) leave the default,
        which raises :class:`NotImplementedError` so the store simply skips
        them.
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support compiled-payload export")

    def import_payload(self, payload: dict) -> None:
        """Restore the compiled synthesis from :meth:`export_payload` output.

        Called on a *freshly constructed* backend; after it returns, the
        backend behaves exactly as if ``prepare`` had run against the stored
        matrix (including the synthesis fingerprint).
        """
        raise NotImplementedError(
            f"backend {self.name!r} does not support compiled-payload import")

    def _export_shared(self) -> tuple[dict, dict]:
        """``(meta, arrays)`` holding the payload half every synthesising
        backend shares: the backend name, ``ε_l``, ``κ_eff``, the Eq.-(4)
        polynomial, and the matrix — a dense ``matrix`` array, or a
        structured operator's versioned ``operator_state``.  Subclasses add
        their own half and return ``{"meta": meta, "arrays": arrays}``."""
        from ..linalg.operators import is_structured_operator, operator_state_payload

        if not self._prepared:
            raise BackendError("call prepare() before export_payload()")
        meta = {
            "backend": self.name,
            "epsilon_l": float(self.epsilon_l),
            "kappa_effective": float(self.kappa_effective),
            "polynomial": _polynomial_meta(self.polynomial),
        }
        arrays = {"poly_coefficients": np.asarray(self.polynomial.coefficients,
                                                  dtype=float)}
        if is_structured_operator(self.matrix):
            meta["operator_state"], op_arrays = operator_state_payload(self.matrix)
            arrays.update(op_arrays)
        else:
            arrays["matrix"] = self.matrix
        return meta, arrays

    def _import_shared(self, payload: dict) -> tuple[dict, dict]:
        """Restore the half written by :meth:`_export_shared` and return the
        payload's ``(meta, arrays)`` for the subclass's own half."""
        from ..linalg.operators import operator_from_payload

        meta, arrays = payload["meta"], payload["arrays"]
        if meta.get("backend") != self.name:
            raise BackendError(
                f"payload was exported by backend {meta.get('backend')!r}, "
                f"not {self.name!r}")
        if "operator_state" in meta:
            self.matrix = operator_from_payload(meta["operator_state"], arrays)
        else:
            self.matrix = check_square(np.asarray(arrays["matrix"], dtype=float),
                                       name="A")
        self.epsilon_l = float(meta["epsilon_l"])
        self.kappa_effective = float(meta["kappa_effective"])
        self.polynomial = _polynomial_from_meta(meta["polynomial"],
                                                arrays["poly_coefficients"])
        return meta, arrays

    # ------------------------------------------------------------------ #
    def describe(self) -> dict:
        """Backend metadata recorded in solver results."""
        return {"backend": self.name}


def _effective_kappa(sigma: np.ndarray, alpha: float, kappa: float | None,
                     margin: float) -> float:
    """Condition number seen by the polynomial: ``α / σ_min`` (with a margin)."""
    sigma_min = float(sigma.min())
    if sigma_min <= 0.0:
        raise BackendError("matrix is numerically singular")
    if kappa is not None:
        sigma_min = min(sigma_min, float(sigma.max()) / float(kappa))
    return margin * alpha / sigma_min


def _matrix_free_spectrum(operator, kappa: float | None, *, margin: float,
                          subnormalization_margin: float) -> tuple[float, float]:
    """``(alpha, kappa_eff)`` for the matrix-free route — never densifies.

    The dense path reads ``σ_max`` / ``σ_min`` off the SVD; the matrix-free
    path sources them, in order of preference:

    * the operator's **exact** extreme-eigenvalue bounds (symmetric
      operators: ``σ = |λ|``; definite spectra attain ``min |λ|`` at an
      endpoint), or an explicitly pinned ``kappa``;
    * reorthogonalised **Lanczos** Ritz values for symmetric spectra the
      bounds cannot resolve — the indefinite shifted-Helmholtz case, where
      ``min |λ|`` sits *inside* the spectrum and no analytic κ is needed
      any more;
    * **Golub–Kahan** singular-value estimates for non-symmetric operators
      (convection–diffusion), which the backend inverts through the
      symmetric dilation ``[[0, A], [Aᵀ, 0]]``.

    All estimates are safety-widened (κ over-estimated) and use a fixed
    seed, so a re-``prepare`` of the same operator is bit-reproducible.
    """
    from ..linalg.cond import estimate_singular_bounds, lanczos_spectrum_estimate
    from ..linalg.operators import is_structured_operator

    if not is_structured_operator(operator):
        raise BackendError(
            "the matrix-free route requires a structured operator")
    n = operator.shape[0]
    sigma_min: float | None = None
    if operator.is_symmetric:
        bounds = operator.eigenvalue_bounds()
        if bounds is not None:
            lo, hi = bounds
            sigma_max = max(abs(lo), abs(hi))
            if lo * hi > 0:
                sigma_min = min(abs(lo), abs(hi))
        if bounds is None or (sigma_min is None and kappa is None):
            lo_e, hi_e, interior = lanczos_spectrum_estimate(
                operator.matvec, n, rng=0)
            if bounds is None:
                sigma_max = max(abs(lo_e), abs(hi_e))
            if sigma_min is None and interior > 0.0:
                sigma_min = interior
    else:
        smin, smax = estimate_singular_bounds(operator.matvec,
                                              operator.rmatvec, n, rng=0)
        sigma_max = smax
        if smin > 0.0:
            sigma_min = smin
    if sigma_max <= 0.0:
        raise BackendError("matrix is numerically singular")
    alpha = subnormalization_margin * sigma_max
    if kappa is not None:
        cap = sigma_max / float(kappa)
        sigma_min = cap if sigma_min is None else min(sigma_min, cap)
    if sigma_min is None or sigma_min <= 0.0:
        raise BackendError(
            "could not resolve min |λ| for the matrix-free route: the "
            "spectral estimate collapsed to zero — pass kappa= explicitly")
    return alpha, margin * alpha / sigma_min


def _calibrated_polynomial(kappa_eff: float, epsilon_l: float, *, max_norm: float | None,
                           calibrate: bool, error_convention: str) -> InversePolynomial:
    """Build the Eq.-(4) polynomial whose *achieved* accuracy matches ``ε_l``.

    The analytic parameters ``b(ε', κ)`` and ``D(ε', κ)`` are conservative; when
    ``calibrate`` is on, the construction error ``ε'`` is increased by bisection
    until the measured relative inverse error lands within ``[ε_l/4, ε_l]``, so
    that the contraction factor of the refinement matches the nominal ``ε_l``
    (this is what makes the Theorem III.1 bound the sharp estimate observed in
    Fig. 3 of the paper).
    """
    base_error = polynomial_error_from_solution_accuracy(epsilon_l, kappa_eff,
                                                         error_convention)
    poly = build_inverse_polynomial(kappa_eff, base_error, max_norm=max_norm)
    if not calibrate:
        return poly
    achieved = poly.relative_inverse_error()
    if achieved >= epsilon_l / 4.0:
        return poly
    # increase the construction error until the achieved accuracy is close to
    # (but not above) the requested one; the loop is logarithmic in the gap.
    low, high = base_error, 0.5
    best = poly
    for _ in range(40):
        mid = np.sqrt(low * high)
        candidate = build_inverse_polynomial(kappa_eff, mid, max_norm=max_norm)
        achieved = candidate.relative_inverse_error()
        if achieved > epsilon_l:
            high = mid
        else:
            best = candidate
            low = mid
            if achieved >= epsilon_l / 4.0:
                break
        if high / low < 1.05:
            break
    return best


# ---------------------------------------------------------------------- #
# payload (de)serialisation helpers
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class _RestoredBlockEncoding:
    """Summary of a block-encoding restored from a stored payload.

    The compiled :class:`~repro.qsp.qsvt_circuit.QSVTProgram` already contains
    the block-encoding unitary inside its fused plans, so a restored backend
    only needs the *metadata* of the original construction (``alpha`` for
    reports, register sizes for sanity checks) — rebuilding the circuit-level
    object would repeat exactly the synthesis the store exists to skip.
    """

    alpha: float
    num_ancillas: int
    num_data_qubits: int
    name: str

    @property
    def num_qubits(self) -> int:
        return self.num_ancillas + self.num_data_qubits

    @property
    def dimension(self) -> int:
        return 2**self.num_data_qubits


def _polynomial_meta(poly: InversePolynomial) -> dict:
    return {
        "kappa": float(poly.kappa),
        "target_error": float(poly.target_error),
        "b_parameter": int(poly.b_parameter),
        "inverse_scale": float(poly.inverse_scale),
        "max_norm": None if poly.max_norm is None else float(poly.max_norm),
        "max_abs": float(poly._max_abs),
    }


def _polynomial_from_meta(meta: dict, coefficients: np.ndarray) -> InversePolynomial:
    return InversePolynomial(
        coefficients=np.asarray(coefficients, dtype=float),
        kappa=float(meta["kappa"]),
        target_error=float(meta["target_error"]),
        b_parameter=int(meta["b_parameter"]),
        inverse_scale=float(meta["inverse_scale"]),
        max_norm=None if meta["max_norm"] is None else float(meta["max_norm"]),
        _max_abs=float(meta["max_abs"]),
    )


def _export_program(program: QSVTProgram, arrays: dict) -> dict:
    """Flatten a compiled program into JSON-able metadata + named arrays."""
    plans_meta = []
    for p, plan in enumerate(program.plans):
        ops_meta = []
        for i, op in enumerate(plan.ops):
            if op.matrix is not None:
                arrays[f"plan{p}_op{i}_matrix"] = np.asarray(op.matrix)
            if op.diagonal is not None:
                arrays[f"plan{p}_op{i}_diagonal"] = np.asarray(op.diagonal)
            ops_meta.append({
                "kind": op.kind,
                "qubits": list(op.qubits),
                "controls": list(op.controls),
                "control_states": list(op.control_states),
                "shift": int(op.shift),
                "source_gates": int(op.source_gates),
            })
        plans_meta.append({
            "num_qubits": int(plan.num_qubits),
            "source_gate_count": int(plan.source_gate_count),
            "fusion": plan.fusion,
            "max_fused_qubits": int(plan.max_fused_qubits),
            "ops": ops_meta,
        })
    arrays["global_phases"] = np.asarray(program.global_phases, dtype=complex)
    return {
        "num_qubits": int(program.num_qubits),
        "num_ancillas": int(program.num_ancillas),
        "dimension": int(program.dimension),
        "block_encoding_calls_per_run": int(program.block_encoding_calls_per_run),
        "circuit_depth": int(program.circuit_depth),
        "conjugate_run": bool(program.conjugate_run),
        "plans": plans_meta,
    }


def _import_program(meta: dict, arrays: dict) -> QSVTProgram:
    plans = []
    for p, plan_meta in enumerate(meta["plans"]):
        ops = []
        for i, op_meta in enumerate(plan_meta["ops"]):
            matrix = arrays.get(f"plan{p}_op{i}_matrix")
            diagonal = arrays.get(f"plan{p}_op{i}_diagonal")
            ops.append(PlanOp(
                kind=str(op_meta["kind"]),
                qubits=tuple(int(q) for q in op_meta["qubits"]),
                matrix=None if matrix is None else np.asarray(matrix, dtype=complex),
                diagonal=(None if diagonal is None
                          else np.asarray(diagonal, dtype=complex)),
                controls=tuple(int(q) for q in op_meta["controls"]),
                control_states=tuple(int(s) for s in op_meta["control_states"]),
                shift=int(op_meta.get("shift", 0)),
                source_gates=int(op_meta["source_gates"]),
            ))
        plans.append(ExecutionPlan(
            int(plan_meta["num_qubits"]), ops,
            source_gate_count=int(plan_meta["source_gate_count"]),
            fusion=str(plan_meta["fusion"]),
            max_fused_qubits=int(plan_meta["max_fused_qubits"])))
    return QSVTProgram(
        num_qubits=int(meta["num_qubits"]),
        num_ancillas=int(meta["num_ancillas"]),
        dimension=int(meta["dimension"]),
        plans=plans,
        global_phases=[complex(p) for p in np.asarray(arrays["global_phases"])],
        block_encoding_calls_per_run=int(meta["block_encoding_calls_per_run"]),
        circuit_depth=int(meta["circuit_depth"]),
        conjugate_run=bool(meta["conjugate_run"]))


# ---------------------------------------------------------------------- #
# circuit-level backend
# ---------------------------------------------------------------------- #
class CircuitQSVTBackend(QSVTBackend):
    """Faithful circuit-level QSVT backend.

    Parameters
    ----------
    block_encoding:
        Block-encoding construction name (``"dilation"``, ``"lcu"``,
        ``"fable"``, ``"tridiagonal"``).  ``None`` (default) resolves at
        ``prepare`` time: dense matrices use ``"dilation"``; structured
        tridiagonal-Toeplitz operators (the Eq.-(7) Poisson shape) use the
        ``"tridiagonal"`` construction of :mod:`repro.blockencoding.banded`
        — the structured-operator layer's natural circuit partner.
    dense_block_encoding:
        Insert the block-encoding as one dense gate (fast simulation, default)
        or inline its gate-level circuit.
    max_polynomial_norm:
        Sup-norm the inverse polynomial is rescaled to before phase solving.
    calibrate_polynomial:
        Tune the polynomial so its *achieved* accuracy matches ``ε_l`` (see
        :func:`_calibrated_polynomial`).
    phase_tolerance:
        Convergence tolerance of the QSP phase-factor solver.
    sampling:
        Read-out model applied to the solution direction.
    kappa_margin:
        Safety factor applied to the effective condition number.
    error_convention:
        Mapping from ``ε_l`` to the polynomial construction error
        (``"conservative"`` = ``ε_l/(2κ)``, the paper's choice).
    fusion:
        Gate-fusion mode of the compiled execution plans (``"greedy"``
        default, ``"none"`` for the per-gate reference path) — see
        :mod:`repro.quantum.plan`.
    max_fused_qubits:
        Width cap of fused dense unitaries in the compiled plans.
    """

    name = "circuit-qsvt"

    #: dimension above which a structured operator refuses to densify into
    #: the circuit simulation (the dense statevector is the cost, not the
    #: matrix — use the ideal backend's matrix-free route instead).
    _DENSIFY_LIMIT = 4096

    def __init__(self, *, block_encoding: str | None = None,
                 dense_block_encoding: bool = True,
                 max_polynomial_norm: float = 0.9,
                 calibrate_polynomial: bool = True,
                 phase_tolerance: float = 1e-12,
                 sampling: SamplingModel | None = None,
                 kappa_margin: float = 1.05,
                 error_convention: str = "conservative",
                 fusion: str | None = None,
                 max_fused_qubits: int | None = None) -> None:
        self.block_encoding_method = block_encoding
        self.dense_block_encoding = bool(dense_block_encoding)
        self.max_polynomial_norm = float(max_polynomial_norm)
        self.calibrate_polynomial = bool(calibrate_polynomial)
        self.phase_tolerance = float(phase_tolerance)
        self.sampling = sampling if sampling is not None else SamplingModel()
        self.kappa_margin = float(kappa_margin)
        self.error_convention = error_convention
        self.fusion = fusion
        self.max_fused_qubits = max_fused_qubits
        self._prepared = False

    # ------------------------------------------------------------------ #
    def prepare(self, matrix, *, epsilon_l: float, kappa: float | None = None) -> None:
        from ..linalg.operators import is_structured_operator

        method = self.block_encoding_method
        handed = matrix
        if is_structured_operator(matrix):
            stencil = getattr(matrix, "toeplitz_stencil", lambda: None)()
            banded_shape = (is_power_of_two(matrix.dimension)
                            and stencil is not None
                            and set(stencil) == {-1, 0, 1}
                            and stencil[1] == stencil[-1])
            # symmetric tridiagonal Toeplitz operators (the Eq.-(7) Poisson
            # shape) run through the plan-op banded encoding: O(2^q) per
            # block-encoding call, zero dense matrices, no densification
            # wall.  An *explicit* dense construction name keeps the legacy
            # densify-and-simulate path (the reference the plan-op route is
            # tested against).
            if banded_shape and method in (None, "banded-plan"):
                self._prepare_banded_plan(matrix, epsilon_l, kappa)
                return
            if method == "banded-plan":
                raise BackendError(
                    "the banded-plan block-encoding needs a symmetric "
                    "power-of-two tridiagonal Toeplitz operator")
            # other structured shapes densify here (small N only): the
            # circuit simulation is dense in the *statevector* anyway.
            if matrix.dimension > self._DENSIFY_LIMIT:
                raise BackendError(
                    f"circuit backend cannot simulate N={matrix.dimension} "
                    "with a dense block-encoding; use the ideal backend's "
                    "matrix-free route")
            matrix = matrix.to_dense()
        if method is None:
            method = "dilation"
        # record the resolution without clobbering the constructor's None
        # sentinel: a reused backend instance must re-resolve per matrix.
        self.resolved_block_encoding = method
        mat = check_square(np.asarray(matrix, dtype=float), name="A")
        self.matrix = mat
        sigma = np.linalg.svd(mat, compute_uv=False)
        # the QSVT inverts A through a block-encoding of A† (Sec. II-A4)
        self.block = build_block_encoding(mat.conj().T, method)
        self.kappa_effective = _effective_kappa(sigma, self.block.alpha, kappa,
                                                self.kappa_margin)
        self._synthesise_phases(epsilon_l)
        # compile the QSVT circuits into fused execution plans once; every
        # apply_inverse / apply_inverse_batch call replays them.
        self.program = compile_qsvt_program(
            self.block, self.phases, real_part=True,
            dense_block_encoding=self.dense_block_encoding,
            fusion=self.fusion, max_fused_qubits=self.max_fused_qubits)
        # the caller's matrix, not the densified copy: a structured operator
        # stays fresh for ``is_stale(operator)``.
        self._record_synthesis(handed)
        self._prepared = True

    def _synthesise_phases(self, epsilon_l: float) -> None:
        """Build the calibrated polynomial for ``kappa_effective`` and solve its phases."""
        self.polynomial = _calibrated_polynomial(
            self.kappa_effective, epsilon_l, max_norm=self.max_polynomial_norm,
            calibrate=self.calibrate_polynomial, error_convention=self.error_convention)
        result = solve_qsp_phases(self.polynomial.coefficients,
                                  tolerance=self.phase_tolerance, raise_on_failure=False)
        if not result.converged and result.residual > 1e-8:
            raise BackendError(
                f"QSP phase factors did not converge (residual {result.residual:.2e}); "
                "use the 'ideal' backend for this configuration")
        self.phases = result.phases
        self.phase_residual = result.residual
        self.epsilon_l = float(epsilon_l)

    def _prepare_banded_plan(self, operator, epsilon_l: float,
                             kappa: float | None) -> None:
        """Matrix-free circuit synthesis for tridiagonal Toeplitz operators.

        Swaps the dense ``SVD → dense block-encoding → gate circuit``
        pipeline for exact closed-form spectra and the plan-op circulant
        embedding of :class:`~repro.blockencoding.banded.BandedPlanBlockEncoding`
        — nothing in the synthesis or in later ``apply_inverse`` calls ever
        materialises an ``N x N`` array, so the ``_DENSIFY_LIMIT`` wall does
        not apply to this route.
        """
        from ..blockencoding.banded import (BandedPlanBlockEncoding,
                                            compile_banded_qsvt_program)
        from ..linalg.cond import lanczos_spectrum_estimate

        stencil = operator.toeplitz_stencil()
        self.resolved_block_encoding = "banded-plan"
        # A† = A for the real symmetric stencil, so the encoding targets the
        # operator itself — same convention as build_block_encoding(A†).
        self.block = BandedPlanBlockEncoding(
            int(operator.dimension).bit_length() - 1,
            diagonal=float(stencil.get(0, 0.0)), off_diagonal=float(stencil[1]))
        bounds = operator.eigenvalue_bounds()
        sigma_min = None
        sigma_max = self.block.alpha
        if bounds is not None:
            lo, hi = bounds
            sigma_max = max(abs(lo), abs(hi))
            if lo * hi > 0:
                sigma_min = min(abs(lo), abs(hi))
        if sigma_min is None and kappa is None:
            _, _, interior = lanczos_spectrum_estimate(
                operator.matvec, operator.shape[0], rng=0)
            sigma_min = interior if interior > 0.0 else None
        if kappa is not None:
            cap = sigma_max / float(kappa)
            sigma_min = cap if sigma_min is None else min(sigma_min, cap)
        if sigma_min is None or sigma_min <= 0.0:
            raise BackendError("matrix is numerically singular")
        self.kappa_effective = self.kappa_margin * self.block.alpha / sigma_min
        self._synthesise_phases(epsilon_l)
        self.matrix = operator
        self.program = compile_banded_qsvt_program(self.block, self.phases,
                                                   real_part=True)
        self._record_synthesis(operator)
        self._prepared = True

    def apply_inverse(self, rhs) -> BackendApplication:
        return self.apply_inverse_batch(as_vector(rhs, name="rhs")[None])[0]

    def apply_inverse_batch(self, rhs_batch) -> list[BackendApplication]:
        """Batched inverse: one plan sweep for all ``B`` right-hand sides.

        The whole batch replays the compiled
        :class:`~repro.qsp.qsvt_circuit.QSVTProgram`, so every fused
        contraction updates all ``B`` states at once.  The right-hand sides
        are real, so on a real block-encoding (every construction of a real
        matrix, and the banded-plan route) that is one sweep of the ``+θ``
        plan: the modeled ``-θ`` run is its conjugate.  That saves the
        per-op Python and dispatch overhead ``B - 1`` times, which is most
        of a sweep on small registers; on large registers each op streams
        ``B`` states' amplitudes, so a batch costs about as much per state
        as single-row sweeps.
        """
        if not self._prepared:
            raise BackendError("call prepare() before apply_inverse_batch()")
        batch = np.atleast_2d(np.asarray(rhs_batch, dtype=float))
        application = self.program.apply_batch(batch)
        results = []
        for raw, prob in zip(np.real(application.vectors),
                             application.success_probabilities):
            norm = np.linalg.norm(raw)
            if norm == 0.0:
                raise BackendError("QSVT produced a zero post-selected state")
            direction = self.sampling.read_out(raw / norm)
            results.append(BackendApplication(
                direction=direction,
                block_encoding_calls=application.block_encoding_calls,
                polynomial_degree=self.polynomial.degree,
                success_probability=float(prob),
                shots=self.sampling.shots_used(),
            ))
        return results

    def payload_bytes(self) -> int:
        total = super().payload_bytes()
        if self._prepared:
            total += self.program.payload_bytes()
            total += int(np.asarray(self.phases).nbytes)
        return total

    def export_payload(self) -> dict:
        # the banded-plan route keeps the structured operator itself, so its
        # payload carries the operator state instead of a dense matrix.
        meta, arrays = self._export_shared()
        arrays["phases"] = np.asarray(self.phases, dtype=float)
        meta.update({
            "phase_residual": float(self.phase_residual),
            "block_encoding_method": self.resolved_block_encoding,
            "block": {
                "alpha": float(self.block.alpha),
                "num_ancillas": int(self.block.num_ancillas),
                "num_data_qubits": int(self.block.num_data_qubits),
                "name": str(self.block.name),
            },
            "program": _export_program(self.program, arrays),
        })
        return {"meta": meta, "arrays": arrays}

    def import_payload(self, payload: dict) -> None:
        meta, arrays = self._import_shared(payload)
        self.resolved_block_encoding = str(meta["block_encoding_method"])
        self.block = _RestoredBlockEncoding(**meta["block"])
        self.phases = np.asarray(arrays["phases"], dtype=float)
        self.phase_residual = float(meta["phase_residual"])
        self.program = _import_program(meta["program"], arrays)
        self._record_synthesis(self.matrix)
        self._prepared = True

    def describe(self) -> dict:
        info = {"backend": self.name,
                "block_encoding": getattr(self, "resolved_block_encoding",
                                          self.block_encoding_method or "auto"),
                "sampling": self.sampling.mode}
        if self._prepared:
            info.update({
                "polynomial_degree": self.polynomial.degree,
                "kappa_effective": self.kappa_effective,
                "achieved_epsilon_l": self.polynomial.relative_inverse_error(),
                "phase_residual": self.phase_residual,
                "block_encoding_alpha": self.block.alpha,
                "fusion": self.program.plans[0].fusion,
                "contractions_per_sweep": self.program.contractions_per_sweep,
                "gates_per_sweep": self.program.source_gates_per_sweep,
            })
        return info


# ---------------------------------------------------------------------- #
# ideal polynomial backend
# ---------------------------------------------------------------------- #
#: byte budget of one column block of the matrix-free Clenshaw recurrence
#: (a quarter of a 2 MiB per-core L2): the block width is the number of
#: float64 columns of the ``(N, B)`` batch (``(2N, B)`` on the dilation)
#: that fit, and at least one.
CLENSHAW_BLOCK_BYTES = 512 * 1024


class IdealPolynomialBackend(QSVTBackend):
    """Noiseless singular-value transformation by the Eq.-(4) polynomial.

    Equivalent to the circuit backend with exact phase factors and exact
    read-out, but evaluated directly on the SVD of the sub-normalised matrix,
    so arbitrarily large polynomial degrees (``κ`` of a few hundred, Fig. 4)
    remain tractable.

    **Matrix-free route.**  Handed a
    :class:`~repro.linalg.operators.StructuredOperator`, ``prepare`` skips
    the ``O(N³)`` SVD entirely: the subnormalisation ``α`` and the effective
    ``κ`` come from the operator's *exact* extreme-eigenvalue bounds when it
    has them, and otherwise from matrix-free spectral estimates (Lanczos
    Ritz values for symmetric — including indefinite — spectra, Golub–Kahan
    singular-value bounds for non-symmetric ones).  ``apply_inverse``
    evaluates the very same Eq.-(4) Chebyshev polynomial through a Clenshaw
    recurrence over ``matmat`` calls — ``degree × O(nnz)`` work and
    ``O(nnz)`` memory.  The recurrence takes ``scale=1/α`` and the unscaled
    ``matmat``, so each term's ``2·(A/α)·b`` is one multiply by ``2/α``,
    the even terms of the odd polynomial (all ``c_k == 0.0``) skip their
    ``c_k·v`` update, and a degree-``d`` polynomial applies the operator
    ``d`` times (the Table I block-encoding count); these rewrites round exactly
    like scaling every product by ``1/α`` first (see
    :func:`~repro.qsp.chebyshev.evaluate_chebyshev_operator`).  A batch of
    right-hand sides runs in column blocks:
    each block holds as many columns as fit :data:`CLENSHAW_BLOCK_BYTES`
    (at least one), so a wide batch of large ``N`` costs about as much per
    column as a loop of single solves.  For a symmetric matrix the two
    routes compute the same transformation (``V P(Σ/α) W† = P(A/α)``
    because the polynomial is odd); non-symmetric operators run the
    dilation ``[[0, A], [Aᵀ, 0]]``, whose odd-polynomial action reproduces
    the dense SVD route exactly (see :meth:`_transform_matrix_free`).  The dense fallback is preserved
    bit-for-bit: ndarray inputs take the exact pre-existing SVD code path.
    """

    name = "ideal-polynomial"

    def __init__(self, *, calibrate_polynomial: bool = True,
                 sampling: SamplingModel | None = None,
                 kappa_margin: float = 1.05,
                 subnormalization_margin: float = 1.0,
                 error_convention: str = "conservative") -> None:
        self.calibrate_polynomial = bool(calibrate_polynomial)
        self.sampling = sampling if sampling is not None else SamplingModel()
        self.kappa_margin = float(kappa_margin)
        self.subnormalization_margin = float(subnormalization_margin)
        self.error_convention = error_convention
        self._matrix_free = False
        self._prepared = False

    def prepare(self, matrix, *, epsilon_l: float, kappa: float | None = None) -> None:
        from ..linalg.operators import is_structured_operator

        if is_structured_operator(matrix):
            self._prepare_matrix_free(matrix, epsilon_l, kappa)
            return
        self._matrix_free = False
        mat = check_square(np.asarray(matrix, dtype=float), name="A")
        self.matrix = mat
        # SVD of A† = V Σ W†; the QSVT of A† produces V P(Σ/α) W†
        v, sigma, wh = np.linalg.svd(mat.conj().T)
        self._v = v
        self._sigma = sigma
        self._wh = wh
        self.alpha = self.subnormalization_margin * float(sigma.max())
        self.kappa_effective = _effective_kappa(sigma, self.alpha, kappa, self.kappa_margin)
        self.polynomial = _calibrated_polynomial(
            self.kappa_effective, epsilon_l, max_norm=None,
            calibrate=self.calibrate_polynomial, error_convention=self.error_convention)
        self.epsilon_l = float(epsilon_l)
        self._record_synthesis(mat)
        self._prepared = True

    def _prepare_matrix_free(self, operator, epsilon_l: float,
                             kappa: float | None) -> None:
        """Synthesis without the SVD: exact or estimated bounds size the polynomial."""
        self.alpha, self.kappa_effective = _matrix_free_spectrum(
            operator, kappa, margin=self.kappa_margin,
            subnormalization_margin=self.subnormalization_margin)
        self.polynomial = _calibrated_polynomial(
            self.kappa_effective, epsilon_l, max_norm=None,
            calibrate=self.calibrate_polynomial,
            error_convention=self.error_convention)
        self.matrix = operator
        self._v = self._sigma = self._wh = None
        self._matrix_free = True
        self._dilated = not operator.is_symmetric
        self.epsilon_l = float(epsilon_l)
        self._record_synthesis(operator)
        self._prepared = True

    # ------------------------------------------------------------------ #
    def _transform_matrix_free(self, normalized: np.ndarray) -> np.ndarray:
        """``P(A/α)`` applied to an ``(N, B)`` block by Clenshaw over ``matmat``.

        Non-symmetric operators run the same odd polynomial on the symmetric
        dilation ``H = [[0, A], [Aᵀ, 0]]``: with ``Aᵀ = V Σ Wᵀ``, an odd
        ``p`` gives ``p(H/α) [b; 0] = [0; V p(Σ/α) Wᵀ b]`` — the bottom
        block is *exactly* what the dense route computes from the SVD of
        ``A†``, at twice the matvec cost and still O(nnz) memory.

        The recurrence runs over column blocks whose ``(rows, width)`` slab
        fits :data:`CLENSHAW_BLOCK_BYTES` (``rows`` is ``N``, or ``2N`` on
        the dilation), so its buffers stay cache-resident across the
        ``degree`` terms instead of streaming a wide batch through memory
        once per term.  Columns never mix, so blocking only regroups the
        same per-column arithmetic.
        """
        operator = self.matrix
        coefficients = self.polynomial.coefficients
        n = operator.shape[0]
        dilated = self._dilated
        if dilated:
            def apply(w):
                return np.vstack([operator.matmat(w[n:]),
                                  operator.rmatmat(w[:n])])
        else:
            apply = operator.matmat

        rows = 2 * n if dilated else n
        width = max(1, CLENSHAW_BLOCK_BYTES // (rows * normalized.itemsize))
        result = np.empty_like(normalized)
        for start in range(0, normalized.shape[1], width):
            columns = slice(start, start + width)
            block = np.ascontiguousarray(normalized[:, columns])
            if dilated:
                block = np.vstack([block, np.zeros_like(block)])
            # the last n rows: the whole block, or the dilation's lower half
            result[:, columns] = evaluate_chebyshev_operator(
                coefficients, apply, block, scale=1.0 / self.alpha)[-n:]
        return result

    def apply_inverse(self, rhs) -> BackendApplication:
        return self.apply_inverse_batch(as_vector(rhs, name="rhs")[None])[0]

    def apply_inverse_batch(self, rhs_batch) -> list[BackendApplication]:
        """Batched inverse: one contraction sweep for all ``B`` right-hand sides.

        Dense route: the Chebyshev transform of the singular values is
        evaluated once and the whole batch is pushed through
        ``V diag(P(Σ/α)) W†`` as a single matrix-matrix product.  Matrix-free
        route: one Clenshaw recurrence over ``matmat`` calls per column
        block (see :meth:`_transform_matrix_free`) updates all of the
        block's columns per Chebyshev term.
        """
        if not self._prepared:
            raise BackendError("call prepare() before apply_inverse_batch()")
        batch = np.atleast_2d(np.asarray(rhs_batch, dtype=float))
        norms = np.linalg.norm(batch, axis=1)
        if np.any(norms == 0.0):
            raise BackendError("cannot apply the inverse to a zero right-hand side")
        normalized = (batch / norms[:, None]).T
        if self._matrix_free:
            raw = self._transform_matrix_free(normalized).T
        else:
            transformed = evaluate_chebyshev(self.polynomial.coefficients, self._sigma / self.alpha)
            raw = (self._v @ (transformed[:, None] * (self._wh @ normalized))).T
        raw_norms = np.linalg.norm(raw, axis=1)
        if np.any(raw_norms == 0.0):
            raise BackendError("polynomial transformation produced a zero vector")
        return [
            BackendApplication(
                direction=self.sampling.read_out(raw[i] / raw_norms[i]),
                block_encoding_calls=self.polynomial.degree,
                polynomial_degree=self.polynomial.degree,
                success_probability=1.0,
                shots=self.sampling.shots_used(),
            )
            for i in range(batch.shape[0])
        ]

    def payload_bytes(self) -> int:
        total = super().payload_bytes()
        if self._prepared:
            if self._matrix_free:
                total += int(np.asarray(self.polynomial.coefficients).nbytes)
            else:
                total += int(self._v.nbytes + self._sigma.nbytes + self._wh.nbytes)
        return total

    def export_payload(self) -> dict:
        # a matrix-free synthesis is the operator state plus the calibrated
        # polynomial — both tiny, both restorable in any process; the
        # estimated-spectrum work (Lanczos / Golub–Kahan) is what the store
        # round-trip skips.  The dense route adds the SVD factors.
        meta, arrays = self._export_shared()
        meta["alpha"] = float(self.alpha)
        if not self._matrix_free:
            arrays.update({"svd_v": self._v, "svd_sigma": self._sigma,
                           "svd_wh": self._wh})
        return {"meta": meta, "arrays": arrays}

    def import_payload(self, payload: dict) -> None:
        meta, arrays = self._import_shared(payload)
        self._matrix_free = "operator_state" in meta
        if self._matrix_free:
            self._dilated = not self.matrix.is_symmetric
            self._v = self._sigma = self._wh = None
        else:
            self._v = np.asarray(arrays["svd_v"])
            self._sigma = np.asarray(arrays["svd_sigma"])
            self._wh = np.asarray(arrays["svd_wh"])
        self.alpha = float(meta["alpha"])
        self._record_synthesis(self.matrix)
        self._prepared = True

    def describe(self) -> dict:
        info = {"backend": self.name, "sampling": self.sampling.mode}
        if self._prepared:
            info.update({
                "polynomial_degree": self.polynomial.degree,
                "kappa_effective": self.kappa_effective,
                "achieved_epsilon_l": self.polynomial.relative_inverse_error(),
                "matrix_free": self._matrix_free,
            })
            if self._matrix_free:
                info["structure"] = self.matrix.structure
        return info


# ---------------------------------------------------------------------- #
# exact-inverse surrogate backend
# ---------------------------------------------------------------------- #
class ExactInverseBackend(QSVTBackend):
    """Surrogate backend realising the Theorem III.1 hypothesis exactly.

    It computes the exact solution direction and perturbs it by a random
    vector of relative norm ``ε_l`` — i.e. a solver with relative error
    *exactly* ``ε_l``, handy for convergence-theory tests and cheap ablations.
    """

    name = "exact-inverse"

    def __init__(self, *, rng=None, sampling: SamplingModel | None = None) -> None:
        self.rng = as_generator(rng)
        self.sampling = sampling if sampling is not None else SamplingModel()
        # numpy Generators are not thread-safe and the engine layer shares
        # compiled backends across worker threads (cache + thread-mode
        # runner); serialise the draws.
        self._rng_lock = threading.Lock()
        self._prepared = False

    def prepare(self, matrix, *, epsilon_l: float, kappa: float | None = None) -> None:
        from ..linalg.operators import is_structured_operator

        if is_structured_operator(matrix):
            # structured operators bring their own exact classical solve
            # (Thomas / banded LU, Kronecker fast diagonalisation, CG), so
            # the surrogate stays O(nnz)-ish instead of densifying.
            self.matrix = check_square(matrix, name="A")
        else:
            self.matrix = check_square(np.asarray(matrix, dtype=float), name="A")
        self.epsilon_l = float(epsilon_l)
        self._lu = None
        self._record_synthesis(self.matrix)
        self._prepared = True

    def apply_inverse(self, rhs) -> BackendApplication:
        from ..linalg.operators import is_structured_operator

        if not self._prepared:
            raise BackendError("call prepare() before apply_inverse()")
        vector = as_vector(rhs, name="rhs").astype(float)
        if is_structured_operator(self.matrix):
            exact = self.matrix.solve(vector)
        else:
            exact = np.linalg.solve(self.matrix, vector)
        with self._rng_lock:
            perturbation = self.rng.standard_normal(exact.shape[0])
        perturbation *= self.epsilon_l * np.linalg.norm(exact) / np.linalg.norm(perturbation)
        noisy = exact + perturbation
        direction = self.sampling.read_out(noisy / np.linalg.norm(noisy))
        return BackendApplication(direction=direction, block_encoding_calls=0,
                                  polynomial_degree=0, success_probability=1.0,
                                  shots=self.sampling.shots_used())

    def describe(self) -> dict:
        return {"backend": self.name, "epsilon_l": getattr(self, "epsilon_l", None)}


# ---------------------------------------------------------------------- #
def make_backend(name: str = "auto", **kwargs) -> QSVTBackend:
    """Create a backend from a name (``"circuit"``, ``"ideal"``, ``"exact"``, ``"auto"``).

    ``"auto"`` returns the circuit backend — the caller
    (:class:`repro.core.qsvt_solver.QSVTLinearSolver`) decides whether to
    downgrade to the ideal backend based on the expected polynomial degree.
    """
    key = name.lower()
    if key in ("circuit", "circuit-qsvt", "auto"):
        return CircuitQSVTBackend(**kwargs)
    if key in ("ideal", "ideal-polynomial", "polynomial"):
        return IdealPolynomialBackend(**kwargs)
    if key in ("exact", "exact-inverse", "surrogate"):
        return ExactInverseBackend(**kwargs)
    raise BackendError(f"unknown backend {name!r}")
