"""Classical preconditioning for the hybrid solver (paper Sec. I / Sec. III-C4).

The paper points out that the condition number drives every quantum cost
(polynomial degree, number of refinement iterations) and names preconditioning
as the natural classical technique to attack it — e.g. the unpreconditioned
1-D Poisson matrix has ``κ = O(N²)``, which makes the QSVT expensive.  This
module provides simple, cheap preconditioners that are applied **classically
on the CPU** before the system is handed to the QPU pipeline:

* :class:`JacobiPreconditioner` — diagonal scaling ``M = diag(A)``;
* :class:`RowEquilibrationPreconditioner` — scaling by the row 2-norms, the
  standard cure for badly row-scaled systems;
* :class:`IdentityPreconditioner` — no-op, useful as a control in ablations.

:func:`preconditioned_refine` wraps the usual pipeline: it builds the
left-preconditioned system ``(M^{-1}A) x = M^{-1} b``, runs the QSVT +
iterative-refinement solver on it, and reports both the original and the
preconditioned condition numbers so benchmarks can quantify the reduction of
quantum resources.
"""

from __future__ import annotations

import abc

import numpy as np

from ..exceptions import SingularMatrixError
from ..linalg import condition_number
from ..utils import as_vector, check_square
from .refinement import MixedPrecisionRefinement
from .results import RefinementResult

__all__ = [
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "RowEquilibrationPreconditioner",
    "make_preconditioner",
    "preconditioned_refine",
]


class Preconditioner(abc.ABC):
    """Left preconditioner ``M`` applied classically as ``M^{-1} A x = M^{-1} b``."""

    #: name used in reports.
    name: str = "preconditioner"

    @abc.abstractmethod
    def build(self, matrix: np.ndarray) -> None:
        """Compute the preconditioner from the system matrix (O(N)–O(N²) work)."""

    @abc.abstractmethod
    def apply_inverse_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Return ``M^{-1} A``."""

    @abc.abstractmethod
    def apply_inverse_vector(self, vector: np.ndarray) -> np.ndarray:
        """Return ``M^{-1} v``."""

    # ------------------------------------------------------------------ #
    def preconditioned_system(self, matrix, rhs) -> tuple[np.ndarray, np.ndarray]:
        """Build ``(M^{-1}A, M^{-1}b)`` in one call."""
        mat = check_square(np.asarray(matrix, dtype=float), name="A")
        vec = as_vector(rhs, name="b").astype(float)
        self.build(mat)
        return self.apply_inverse_matrix(mat), self.apply_inverse_vector(vec)


class IdentityPreconditioner(Preconditioner):
    """No preconditioning (control case)."""

    name = "identity"

    def build(self, matrix: np.ndarray) -> None:
        return None

    def apply_inverse_matrix(self, matrix: np.ndarray) -> np.ndarray:
        return np.asarray(matrix, dtype=float)

    def apply_inverse_vector(self, vector: np.ndarray) -> np.ndarray:
        return np.asarray(vector, dtype=float)


class _DiagonalScalingPreconditioner(Preconditioner):
    """Shared implementation for preconditioners of the form ``M = diag(d)``."""

    def __init__(self) -> None:
        self._scale: np.ndarray | None = None

    @abc.abstractmethod
    def _diagonal(self, matrix: np.ndarray) -> np.ndarray:
        """Diagonal entries ``d`` of the preconditioner."""

    def build(self, matrix: np.ndarray) -> None:
        diag = self._diagonal(np.asarray(matrix, dtype=float))
        if np.any(np.abs(diag) < np.finfo(float).tiny):
            raise SingularMatrixError(
                f"{self.name} preconditioner: zero scaling entry encountered")
        self._scale = 1.0 / diag

    def _require_built(self) -> np.ndarray:
        if self._scale is None:
            raise RuntimeError("call build() (or preconditioned_system()) first")
        return self._scale

    def apply_inverse_matrix(self, matrix: np.ndarray) -> np.ndarray:
        return self._require_built()[:, None] * np.asarray(matrix, dtype=float)

    def apply_inverse_vector(self, vector: np.ndarray) -> np.ndarray:
        return self._require_built() * np.asarray(vector, dtype=float)


class JacobiPreconditioner(_DiagonalScalingPreconditioner):
    """Diagonal (Jacobi) preconditioner ``M = diag(A)``."""

    name = "jacobi"

    def _diagonal(self, matrix: np.ndarray) -> np.ndarray:
        return np.diag(matrix).copy()


class RowEquilibrationPreconditioner(_DiagonalScalingPreconditioner):
    """Row scaling ``M = diag(||A_{i,:}||₂)`` (equilibration)."""

    name = "row-equilibration"

    def _diagonal(self, matrix: np.ndarray) -> np.ndarray:
        return np.linalg.norm(matrix, axis=1)


def make_preconditioner(kind: str) -> Preconditioner:
    """Create a preconditioner from its name (``"identity"``, ``"jacobi"``,
    ``"row-equilibration"``/``"row"``)."""
    key = kind.lower()
    if key in ("identity", "none"):
        return IdentityPreconditioner()
    if key == "jacobi":
        return JacobiPreconditioner()
    if key in ("row", "row-equilibration", "equilibration"):
        return RowEquilibrationPreconditioner()
    raise ValueError(f"unknown preconditioner {kind!r}")


def preconditioned_refine(matrix, rhs, *, preconditioner: str | Preconditioner = "jacobi",
                          epsilon_l: float = 1e-2, target_accuracy: float = 1e-10,
                          backend: str = "auto", x_true=None,
                          **refinement_options) -> RefinementResult:
    """Run Algorithm 2 on the left-preconditioned system ``M^{-1}A x = M^{-1}b``.

    The preconditioner is applied classically (a CPU-side ``O(N²)`` scaling),
    reducing the condition number the QPU pipeline has to handle; the returned
    result's ``solver_info`` records the original and preconditioned condition
    numbers (``kappa_original`` / ``kappa_preconditioned``) so the quantum-cost
    reduction can be quantified.

    The residuals reported in the history are those of the *preconditioned*
    system (the quantity the stopping criterion acts on); the returned solution
    ``result.x`` solves the original system because left preconditioning does
    not change the solution.
    """
    from .qsvt_solver import QSVTLinearSolver

    precond = (preconditioner if isinstance(preconditioner, Preconditioner)
               else make_preconditioner(preconditioner))
    mat = check_square(np.asarray(matrix, dtype=float), name="A")
    vec = as_vector(rhs, name="b").astype(float)
    preconditioned_matrix, preconditioned_rhs = precond.preconditioned_system(mat, vec)

    solver = QSVTLinearSolver(preconditioned_matrix, epsilon_l=epsilon_l, backend=backend)
    driver = MixedPrecisionRefinement(solver, target_accuracy=target_accuracy,
                                      **refinement_options)
    result = driver.solve(preconditioned_rhs, x_true=x_true)
    result.solver_info.update({
        "preconditioner": precond.name,
        "kappa_original": condition_number(mat),
        "kappa_preconditioned": condition_number(preconditioned_matrix),
    })
    return result
