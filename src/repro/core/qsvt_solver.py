"""Single-solve QSVT linear solver (Sec. II-A4 and Remark 2 of the paper).

:class:`QSVTLinearSolver` owns one matrix ``A``: at construction it performs
the classical "circuit synthesis" (block-encoding of ``A†``, inverse
polynomial, QSP phases) through its backend, and every call to :meth:`solve`
then performs

1. normalisation of the right-hand side (quantum states are unit vectors),
2. the QSVT application on the QPU backend and the read-out of the solution
   direction ``η``,
3. the classical de-normalisation ``μ = argmin_μ ||rhs − μ A η||`` of Remark 2,
4. assembly of the solution ``x = μ η`` and of the solve record.

Used on its own it is the "QSVT only" solver of Table I / Fig. 5; plugged into
:class:`repro.core.refinement.MixedPrecisionRefinement` it becomes the inner
solver of Algorithm 2.

Synthesis lifecycle
-------------------
The expensive synthesis is performed **once** and keyed to the matrix bytes
(:func:`repro.utils.matrix_fingerprint`), hashed once by the backend's
``prepare()`` (or ``import_payload()``) and adopted by the solver.
Mutating the matrix in place after construction no longer silently reuses
the stale circuits: :meth:`solve` raises
:class:`~repro.exceptions.StaleSynthesisError` and the caller decides
between :meth:`recompile` (refresh the synthesis for the new bytes) or a new
solver.  A dense matrix is re-hashed once per solve call for that check; a
structured operator is immutable and is never re-hashed.
:class:`repro.engine.cache.CompiledSolverCache` keys its entries on
the same fingerprint, so a cached solver can never serve a mutated matrix.

Every solve goes through :meth:`solve_batch` and the backend's
``apply_inverse_batch``: a single right-hand side is a batch of one, and a
stack of ``B`` is answered in one application (one circuit sweep on the
circuit backend) instead of ``B``.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import StaleSynthesisError
from ..linalg import condition_number, is_structured_operator, scaled_residual
from ..obs.trace import span as obs_span
from ..qsp.inverse_polynomial import (
    inverse_polynomial_degree,
    polynomial_error_from_solution_accuracy,
)
from ..utils import (
    as_vector,
    check_square,
    is_linear_operator,
    is_power_of_two,
    matrix_fingerprint,
    payload_nbytes,
)
from .backends import CircuitQSVTBackend, IdealPolynomialBackend, QSVTBackend, make_backend
from .normalization import recover_scale
from .results import SingleSolveRecord

__all__ = ["QSVTLinearSolver", "auto_backend_name", "default_kappa"]

#: polynomial degree above which the ``"auto"`` backend falls back to the
#: ideal-polynomial backend (phase solving beyond this degree is slow and the
#: two backends agree to simulation accuracy anyway).
_AUTO_DEGREE_LIMIT = 350
#: data-register size above which the ``"auto"`` backend avoids the dense
#: circuit simulation.
_AUTO_DIMENSION_LIMIT = 64


def auto_backend_name(kappa: float, epsilon_l: float, dimension: int) -> str:
    """The backend name the ``"auto"`` mode picks for ``(κ, ε_l, N)``.

    Single source of the decision rule: :class:`QSVTLinearSolver` applies it
    when constructed with ``backend="auto"``, and the engine autotuner uses
    it to pin an explicit backend name on jobs *before* synthesis — the two
    must never drift apart, or tuned jobs would land on different cache keys
    than auto-resolved ones.  Non-power-of-two sizes cannot enter the
    circuit encodings at all, so they always resolve to the ideal backend.
    """
    if not is_power_of_two(int(dimension)):
        return "ideal"
    expected_error = polynomial_error_from_solution_accuracy(epsilon_l, kappa)
    expected_degree = inverse_polynomial_degree(kappa, expected_error)
    if expected_degree <= _AUTO_DEGREE_LIMIT and dimension <= _AUTO_DIMENSION_LIMIT:
        return "circuit"
    return "ideal"


def default_kappa(matrix) -> float:
    """κ for the inverse polynomial when the caller did not pin one.

    Dense matrices keep the exact SVD condition number (the ``O(N³)``
    classical preprocessing of the paper).  Structured operators stay
    matrix-free end-to-end: exact ``condition_bound`` values win, and
    operators without one (indefinite Helmholtz, non-symmetric
    convection–diffusion) fall back to safety-widened Lanczos /
    Golub–Kahan estimates instead of densifying for an SVD.  The solver
    and the multi-process runner both measure κ through this function, so
    a κ measured in one process and pinned in another synthesises the
    same polynomial.
    """
    if is_linear_operator(matrix):
        from ..linalg.cond import estimate_operator_condition

        return estimate_operator_condition(matrix, rng=0)
    return condition_number(matrix)


class QSVTLinearSolver:
    """Quantum linear solver with accuracy ``ε_l`` for a fixed matrix.

    Parameters
    ----------
    matrix:
        System matrix ``A`` (``N x N`` with ``N`` a power of two).
    epsilon_l:
        Requested relative accuracy of one solve (the "low precision" of the
        mixed-precision scheme).
    backend:
        A :class:`~repro.core.backends.QSVTBackend` instance, a backend name
        (``"circuit"``, ``"ideal"``, ``"exact"``) or ``"auto"`` (default):
        circuit-level simulation when the expected polynomial degree and the
        problem size allow it, ideal-polynomial otherwise.
    kappa:
        Condition number to size the inverse polynomial; computed exactly from
        the SVD when omitted (``O(N³)`` classical preprocessing).
    scale_recovery:
        ``"analytic"`` or ``"brent"`` — method used for the de-normalisation.
    backend_options:
        Extra keyword arguments forwarded to the backend factory when
        ``backend`` is given by name.
    """

    def __init__(self, matrix, *, epsilon_l: float = 1e-2,
                 backend: QSVTBackend | str = "auto", kappa: float | None = None,
                 scale_recovery: str = "analytic", **backend_options) -> None:
        if is_linear_operator(matrix):
            # structured operators stay structured end-to-end: no dense copy,
            # no O(N³) SVD for κ (exact bounds or pinned value instead), and
            # "auto" resolves to the ideal backend's matrix-free route.
            self.matrix = check_square(matrix, name="A")
        else:
            self.matrix = check_square(np.asarray(matrix, dtype=float), name="A")
        if not 0.0 < epsilon_l < 1.0:
            raise ValueError("epsilon_l must be in (0, 1)")
        self.epsilon_l = float(epsilon_l)
        self._user_kappa = None if kappa is None else float(kappa)
        self.kappa = (self._user_kappa if kappa is not None
                      else default_kappa(self.matrix))
        self.scale_recovery = scale_recovery
        self.backend = self._resolve_backend(backend, backend_options)
        self._compile()

    # ------------------------------------------------------------------ #
    def _resolve_backend(self, backend, backend_options) -> QSVTBackend:
        if isinstance(backend, QSVTBackend):
            return backend
        if backend != "auto":
            return make_backend(backend, **backend_options)
        if is_linear_operator(self.matrix):
            # matrix-free solves route through the ideal backend; the dense
            # circuit simulation is opt-in for operators (backend="circuit").
            return IdealPolynomialBackend(**backend_options)
        name = auto_backend_name(self.kappa, self.epsilon_l,
                                 self.matrix.shape[0])
        if name == "circuit":
            return CircuitQSVTBackend(**backend_options)
        return IdealPolynomialBackend(**backend_options)

    # ------------------------------------------------------------------ #
    # synthesis lifecycle
    # ------------------------------------------------------------------ #
    def _compile(self) -> None:
        """Run the backend synthesis and record the matrix fingerprint."""
        start = time.perf_counter()
        self.backend.synthesis_fingerprint = None
        self.backend.prepare(self.matrix, epsilon_l=self.epsilon_l, kappa=self.kappa)
        self.preparation_time = time.perf_counter() - start
        self.fingerprint = self._adopt_fingerprint(self.backend, self.matrix)

    @staticmethod
    def _adopt_fingerprint(backend: QSVTBackend, matrix) -> str:
        """The fingerprint the backend recorded for ``matrix`` in
        ``prepare()`` / ``import_payload()`` (the built-in backends hash
        the matrix they were handed there); hashed here only for a backend
        that left it unset, so third-party subclasses that never call
        ``_record_synthesis`` still work through the solver."""
        if backend.synthesis_fingerprint is None:
            backend.synthesis_fingerprint = matrix_fingerprint(matrix)
        return backend.synthesis_fingerprint

    def is_stale(self) -> bool:
        """True when the matrix bytes changed since the last synthesis.

        The solver holds a *reference* to the matrix, so an in-place mutation
        of a dense array (``A *= 2``, ``A[0, 0] = ...``) changes the system
        but not the compiled block-encoding / polynomial / phases.  This
        check — a hash of the matrix bytes — detects the divergence.  A
        structured operator is immutable (its arrays are frozen copies, see
        :mod:`repro.linalg.operators`), so it is never stale and is not
        re-hashed.
        """
        return self._current_fingerprint() != self.fingerprint

    def _current_fingerprint(self) -> str:
        """Fingerprint of the matrix as it is now: hashed for an ndarray
        (read-only ones too — their owner may still write), the stored one
        for an immutable structured operator."""
        if is_structured_operator(self.matrix):
            return self.fingerprint
        return matrix_fingerprint(self.matrix)

    def recompile(self) -> "QSVTLinearSolver":
        """Re-run the circuit synthesis against the current matrix bytes.

        Refreshes the condition number (unless one was pinned at
        construction), the block-encoding, the inverse polynomial and the QSP
        phases.  Returns ``self`` so the call chains:
        ``solver.recompile().solve(rhs)``.
        """
        self.kappa = (self._user_kappa if self._user_kappa is not None
                      else default_kappa(self.matrix))
        self._compile()
        return self

    # ------------------------------------------------------------------ #
    # compiled-payload export / import (persistent synthesis store)
    # ------------------------------------------------------------------ #
    def export_payload(self) -> dict:
        """Serialisable snapshot of the compiled solver.

        Bundles the backend's compiled payload (block-encoding metadata,
        inverse polynomial, QSP phases, fused execution plans — see
        :meth:`repro.core.backends.QSVTBackend.export_payload`) with the
        solver-level parameters, so :meth:`from_payload` can rebuild an
        equivalent solver without any synthesis.  Raises
        :class:`NotImplementedError` when the backend does not support
        export (e.g. the exact-inverse surrogate).
        """
        payload = self.backend.export_payload()
        meta = dict(payload["meta"])
        meta["solver"] = {
            "epsilon_l": float(self.epsilon_l),
            "kappa": float(self.kappa),
            "user_kappa": self._user_kappa,
            "scale_recovery": self.scale_recovery,
        }
        return {"meta": meta, "arrays": payload["arrays"]}

    @classmethod
    def from_payload(cls, payload: dict, **backend_options) -> "QSVTLinearSolver":
        """Rebuild a solver from :meth:`export_payload` output — no synthesis.

        The backend class is chosen from the payload metadata (the *resolved*
        backend, so a payload exported by an ``"auto"`` solver restores the
        concrete circuit or ideal backend it resolved to) and its compiled
        state is imported verbatim; ``backend_options`` are forwarded to the
        backend constructor so restore-time configuration (e.g. a sampling
        model) still applies.  ``preparation_time`` records the restore cost,
        which is what the persistent store's hit-vs-compile speedup measures.
        """
        meta = payload["meta"]
        solver_meta = meta["solver"]
        start = time.perf_counter()
        backend = make_backend(meta["backend"], **backend_options)
        backend.import_payload(payload)
        solver = cls.__new__(cls)
        solver.matrix = backend.matrix
        solver.epsilon_l = float(solver_meta["epsilon_l"])
        solver._user_kappa = (None if solver_meta["user_kappa"] is None
                              else float(solver_meta["user_kappa"]))
        solver.kappa = float(solver_meta["kappa"])
        solver.scale_recovery = solver_meta["scale_recovery"]
        solver.backend = backend
        solver.fingerprint = cls._adopt_fingerprint(backend, solver.matrix)
        solver.preparation_time = time.perf_counter() - start
        return solver

    def _check_fresh(self) -> None:
        """Raise :class:`StaleSynthesisError` unless this solver's matrix and
        its backend's synthesis still match the recorded fingerprint.

        At most one hash covers both staleness modes: a dense matrix is
        hashed once and compared against both stored digests; a structured
        operator cannot change, so only the two stored digests are compared
        (the shared-backend check still fires).
        """
        current = self._current_fingerprint()
        if current != self.fingerprint:
            raise StaleSynthesisError(
                "the matrix was modified in place after circuit synthesis; call "
                "recompile() to refresh the block-encoding/polynomial/phases, or "
                "build a new QSVTLinearSolver")
        # the backend may be shared: another solver (or a direct prepare()
        # call) can have re-synthesised it for a different matrix, in which
        # case this solver's matrix is intact but the backend's compiled
        # artefacts are not ours anymore.
        if current != self.backend.synthesis_fingerprint:
            raise StaleSynthesisError(
                "the backend's compiled synthesis no longer matches this solver's "
                "matrix (the backend instance was re-prepared for a different "
                "matrix — e.g. it is shared between solvers); call recompile() or "
                "give each solver its own backend")

    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        """Problem dimension ``N``."""
        return self.matrix.shape[0]

    def payload_bytes(self) -> int:
        """Bytes kept alive by this solver: its matrix plus the backend's
        compiled artefacts (execution plans, phases, SVD factors).

        :class:`repro.engine.cache.CompiledSolverCache` uses this for
        byte-accounted eviction.
        """
        payload = getattr(self.backend, "payload_bytes", None)
        total = int(payload()) if callable(payload) else 0
        # the backend usually holds the same matrix object and already
        # counted it; only add ours when it is a distinct buffer (structured
        # operators are charged their nnz bytes, not the dense N²·8).
        if getattr(self.backend, "matrix", None) is not self.matrix:
            total += payload_nbytes(self.matrix)
        return total

    def describe(self) -> dict:
        """Metadata about the prepared solver (backend, degree, ``κ``...)."""
        info = self.backend.describe()
        info.update({"epsilon_l": self.epsilon_l, "kappa": self.kappa,
                     "dimension": self.dimension,
                     "preparation_time": self.preparation_time})
        return info

    def solve(self, rhs) -> SingleSolveRecord:
        """Solve ``A x = rhs`` once at accuracy ``ε_l``: a batch of one
        through :meth:`solve_batch`.

        Returns a :class:`~repro.core.results.SingleSolveRecord`; the
        de-normalised solution is ``record.x``.
        """
        return self.solve_batch(as_vector(rhs, name="rhs")[None])[0]

    def solve_batch(self, rhs_batch) -> list[SingleSolveRecord]:
        """Solve ``A x = b_i`` for a stack of right-hand sides at accuracy ``ε_l``.

        ``rhs_batch`` is array-like of shape ``(B, N)`` with ``B >= 1``.  The
        compiled synthesis is shared and the backend answers the whole batch
        in one application (a single circuit sweep on the circuit backend,
        see :meth:`repro.core.backends.CircuitQSVTBackend.apply_inverse_batch`);
        only the cheap classical de-normalisation runs per right-hand side.
        Returns one :class:`~repro.core.results.SingleSolveRecord` per row,
        with the shared quantum wall time split evenly across the records.
        """
        batch = np.atleast_2d(np.asarray(rhs_batch, dtype=float))
        if batch.shape[1] != self.dimension:
            raise ValueError("right-hand side length does not match the matrix")
        if batch.shape[0] == 0:
            raise ValueError("rhs_batch must hold at least one right-hand side")
        self._check_fresh()
        start = time.perf_counter()
        with obs_span("sweep", batch=int(batch.shape[0]),
                      dimension=self.dimension,
                      backend=type(self.backend).__name__):
            applications = self.backend.apply_inverse_batch(batch)
        elapsed = (time.perf_counter() - start) / batch.shape[0]
        return [self._assemble_record(application, batch[i], elapsed)
                for i, application in enumerate(applications)]

    # ------------------------------------------------------------------ #
    def _assemble_record(self, application, b: np.ndarray,
                         elapsed: float) -> SingleSolveRecord:
        """De-normalise one backend application into a solve record."""
        direction = np.real(np.asarray(application.direction, dtype=float))
        scale = recover_scale(self.matrix, direction, b, method=self.scale_recovery)
        x = scale * direction
        omega = scaled_residual(self.matrix, x, b) if np.linalg.norm(b) > 0 else 0.0
        return SingleSolveRecord(
            x=x,
            direction=direction,
            scale=float(scale),
            scaled_residual=float(omega),
            block_encoding_calls=application.block_encoding_calls,
            polynomial_degree=application.polynomial_degree,
            success_probability=application.success_probability,
            shots=application.shots,
            wall_time=elapsed,
        )
