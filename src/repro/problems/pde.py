"""PDE-derived problem families: Poisson in 2-D/3-D, heat-equation time
stepping, convection–diffusion and Helmholtz.

All discretisations are central finite differences on uniform grids with
homogeneous Dirichlet boundary conditions.  The d-dimensional Laplacians are
Kronecker sums of the 1-D stencil ``T = tridiag(-1, 2, -1)``, whose
eigenvalues ``λ_j = 4 sin²(jπ / (2(n+1)))`` are known in closed form — so
every symmetric family here reports an *analytic* condition number,
generalising the paper's 1-D ``κ = O(N²)`` formula (Sec. III-C4) to new
workloads.

**Assembly.**  The symmetric families assemble
:class:`~repro.linalg.operators.StructuredOperator` instances by default
(``assembly="structured"``): Kronecker-sum operators for the 2-D/3-D
Laplacians, banded Toeplitz operators for the 1-D heat and Helmholtz
stencils — ``O(nnz)`` storage and assembly instead of ``O(N²)``, which is
what unlocks ``N ≥ 32768`` grids.  ``assembly="dense"`` reproduces the
original dense arrays bit-for-bit up to the dense wall
(:func:`repro.problems.base.check_dense_assembly`) and refuses beyond it.
The convection–diffusion family is non-symmetric: its structured default
assembles a :class:`~repro.linalg.operators.CSROperator` whose κ is
*estimated* matrix-free by Golub–Kahan bidiagonalisation
(:func:`repro.linalg.cond.estimate_operator_condition`) — the dilation-aware
backends invert it without ever densifying.  The indefinite Helmholtz family
can likewise swap its analytic κ pin for a safety-widened Lanczos estimate
(``kappa_source="estimated"``), exercising the same spectra-estimation
machinery the backends use when no closed form exists.
"""

from __future__ import annotations

import numpy as np

from ..applications.workloads import LinearSystemWorkload
from ..linalg import (
    BandedOperator,
    CSROperator,
    KroneckerSumOperator,
    is_structured_operator,
    lu_factor,
    tridiagonal_toeplitz,
)
from ..linalg.cond import estimate_operator_condition
from ..utils import as_generator
from .base import (
    ProblemFamily,
    SolveChain,
    check_dense_assembly,
    random_rhs_list,
    solved_workloads,
)

__all__ = [
    "stencil_eigenvalues",
    "Poisson2DFamily",
    "Poisson3DFamily",
    "HeatEquationChainFamily",
    "ConvectionDiffusionFamily",
    "HelmholtzFamily",
]


def stencil_eigenvalues(n: int) -> np.ndarray:
    """Eigenvalues ``4 sin²(jπ/(2(n+1)))`` of ``tridiag(-1, 2, -1)``, ascending."""
    j = np.arange(1, n + 1)
    return 4.0 * np.sin(j * np.pi / (2.0 * (n + 1))) ** 2


def _kronecker_laplacian(n: int, dims: int) -> np.ndarray:
    """d-dimensional Dirichlet Laplacian ``Σ_i I⊗…⊗T⊗…⊗I`` (unscaled, dense)."""
    t = tridiagonal_toeplitz(n, 2.0, -1.0)
    total = np.zeros((n**dims, n**dims))
    for axis in range(dims):
        term = np.eye(1)
        for position in range(dims):
            term = np.kron(term, t if position == axis else np.eye(n))
        total += term
    return total


def _assemble_laplacian(n: int, dims: int, *, scale: float, assembly: str,
                        family: str):
    """Kronecker Laplacian as a structured operator or a dense array.

    The structured form stores one ``n x n`` stencil block (``O(n²)``)
    instead of the ``n^{2d} = N²`` dense array; its exact Kronecker-sum
    eigenvalue bounds replace the dense SVD downstream.
    """
    if assembly == "structured":
        return KroneckerSumOperator([tridiagonal_toeplitz(n, 2.0, -1.0)] * dims,
                                    scale=scale)
    if assembly == "dense":
        check_dense_assembly(n**dims, family)
        return _kronecker_laplacian(n, dims) * scale
    raise ValueError(
        f"assembly must be 'structured' or 'dense', got {assembly!r}")


def _interior_grid(n: int) -> np.ndarray:
    """Interior points ``x_j = j h`` with ``h = 1/(n+1)``."""
    return np.arange(1, n + 1) / (n + 1)


# ---------------------------------------------------------------------- #
class Poisson2DFamily(ProblemFamily):
    """2-D Poisson: Kronecker-assembled five-point Laplacian, analytic κ."""

    name = "poisson-2d"
    description = ("2-D Poisson (five-point Kronecker Laplacian, "
                   "analytic kappa, optional multi-RHS)")

    def analytic_condition_number(self, *, grid_points: int = 4,
                                  scaled: bool = True, num_rhs: int = 1,
                                  assembly: str = "structured",
                                  rng=0) -> float:
        """Mirrors the :meth:`workloads` signature so misspelled parameter
        names raise instead of silently evaluating κ at the defaults."""
        del scaled, num_rhs, assembly, rng  # no influence on the spectrum ratio
        lam = stencil_eigenvalues(grid_points)
        # Kronecker-sum spectrum is λ_j + λ_k, so the d-dimensional κ equals
        # the 1-D ratio λ_max/λ_min for every d.
        return float(lam[-1] / lam[0])

    def workloads(self, *, grid_points: int = 4, scaled: bool = True,
                  num_rhs: int = 1, assembly: str = "structured",
                  rng=0) -> list[LinearSystemWorkload]:
        if grid_points < 1 or num_rhs < 1:
            raise ValueError("grid_points and num_rhs must be >= 1")
        n = int(grid_points)
        matrix = _assemble_laplacian(
            n, 2, scale=float((n + 1) ** 2) if scaled else 1.0,
            assembly=assembly, family=self.name)
        x = _interior_grid(n)
        # f(x, y) = 2π² sin(πx) sin(πy), the separable forcing whose
        # continuous solution is sin(πx) sin(πy).
        forcing = 2.0 * np.pi**2 * np.outer(np.sin(np.pi * x),
                                            np.sin(np.pi * x)).ravel()
        if not scaled:
            forcing = forcing / (n + 1) ** 2
        rhs_list = [forcing] + random_rhs_list(n * n, num_rhs - 1, as_generator(rng))
        kappa = self.analytic_condition_number(grid_points=n)
        return solved_workloads(
            f"poisson2d-n{n}", matrix, rhs_list, kappa,
            {"grid_points": n, "dimension": n * n, "scaled": bool(scaled),
             "assembly": assembly})


class Poisson3DFamily(ProblemFamily):
    """3-D Poisson: seven-point Kronecker Laplacian, analytic κ."""

    name = "poisson-3d"
    description = ("3-D Poisson (seven-point Kronecker Laplacian, "
                   "analytic kappa, optional multi-RHS)")

    def analytic_condition_number(self, *, grid_points: int = 2,
                                  scaled: bool = True, num_rhs: int = 1,
                                  assembly: str = "structured",
                                  rng=0) -> float:
        del scaled, num_rhs, assembly, rng  # no influence on the spectrum ratio
        lam = stencil_eigenvalues(grid_points)
        return float(lam[-1] / lam[0])

    def workloads(self, *, grid_points: int = 2, scaled: bool = True,
                  num_rhs: int = 1, assembly: str = "structured",
                  rng=0) -> list[LinearSystemWorkload]:
        if grid_points < 1 or num_rhs < 1:
            raise ValueError("grid_points and num_rhs must be >= 1")
        n = int(grid_points)
        matrix = _assemble_laplacian(
            n, 3, scale=float((n + 1) ** 2) if scaled else 1.0,
            assembly=assembly, family=self.name)
        s = np.sin(np.pi * _interior_grid(n))
        forcing = 3.0 * np.pi**2 * np.einsum("i,j,k->ijk", s, s, s).ravel()
        if not scaled:
            forcing = forcing / (n + 1) ** 2
        rhs_list = [forcing] + random_rhs_list(n**3, num_rhs - 1, as_generator(rng))
        kappa = self.analytic_condition_number(grid_points=n)
        return solved_workloads(
            f"poisson3d-n{n}", matrix, rhs_list, kappa,
            {"grid_points": n, "dimension": n**3, "scaled": bool(scaled),
             "assembly": assembly})


# ---------------------------------------------------------------------- #
class HeatEquationChainFamily(ProblemFamily):
    """Implicit-Euler heat equation: a chain of solves against one operator.

    ``u_t = α u_xx`` stepped by backward Euler solves
    ``(I + Δt α L) u_{k+1} = u_k`` — ``T`` ordered right-hand sides against
    one fixed matrix.  This is the ideal compile-once / solve-many workload:
    one synthesis, ``T − 1`` compiled-solver cache hits, and a single
    shared-memory segment when served by worker processes.
    """

    name = "heat-chain"
    description = ("implicit-Euler heat equation: T ordered solves against "
                   "one fixed operator (the ideal cache/store workload)")

    def analytic_condition_number(self, *, num_points: int = 16,
                                  num_steps: int = 16, dt: float = 1e-3,
                                  diffusivity: float = 1.0,
                                  assembly: str = "structured") -> float:
        del num_steps, assembly  # every step shares the one operator
        lam = stencil_eigenvalues(num_points) * (num_points + 1) ** 2
        scale = float(dt) * float(diffusivity)
        return float((1.0 + scale * lam[-1]) / (1.0 + scale * lam[0]))

    def chain(self, *, num_points: int = 16, num_steps: int = 16,
              dt: float = 1e-3, diffusivity: float = 1.0,
              assembly: str = "structured") -> SolveChain:
        """Build the chain: operator, classical trajectory, per-step workloads."""
        if num_points < 1 or num_steps < 1:
            raise ValueError("num_points and num_steps must be >= 1")
        if dt <= 0 or diffusivity <= 0:
            raise ValueError("dt and diffusivity must be positive")
        n, steps = int(num_points), int(num_steps)
        scale = float(dt) * float(diffusivity) * (n + 1) ** 2
        if assembly == "structured":
            # I + Δt α L is itself tridiagonal Toeplitz: banded storage with
            # exact closed-form eigenvalue bounds.
            matrix = BandedOperator.toeplitz(
                n, {0: 1.0 + 2.0 * scale, 1: -scale, -1: -scale})
        elif assembly == "dense":
            check_dense_assembly(n, self.name)
            laplacian = tridiagonal_toeplitz(n, 2.0, -1.0) * (n + 1) ** 2
            matrix = np.eye(n) + float(dt) * float(diffusivity) * laplacian
        else:
            raise ValueError(
                f"assembly must be 'structured' or 'dense', got {assembly!r}")
        kappa = self.analytic_condition_number(num_points=n, dt=dt,
                                               diffusivity=diffusivity)
        state = np.sin(np.pi * _interior_grid(n))
        chain_name = f"heat-n{n}-T{steps}"
        if is_structured_operator(matrix):
            step_solve = matrix.solve           # banded LU, O(N) per step
        else:
            step_solve = lu_factor(matrix).solve  # one O(N³) factor for T steps
        workloads = []
        for step in range(steps):
            nxt = step_solve(state)
            workloads.append(LinearSystemWorkload(
                name=f"{chain_name}-step{step}", matrix=matrix, rhs=state,
                solution=nxt, condition_number=kappa,
                metadata={"family": self.name, "chain": chain_name,
                          "step": step, "dt": float(dt),
                          "diffusivity": float(diffusivity)}))
            state = nxt
        return SolveChain(name=chain_name, matrix=matrix, workloads=workloads,
                          metadata={"family": self.name, "dt": float(dt),
                                    "diffusivity": float(diffusivity),
                                    "num_steps": steps})

    def workloads(self, *, num_points: int = 16, num_steps: int = 16,
                  dt: float = 1e-3, diffusivity: float = 1.0,
                  assembly: str = "structured") -> list[LinearSystemWorkload]:
        return self.chain(num_points=num_points, num_steps=num_steps, dt=dt,
                          diffusivity=diffusivity, assembly=assembly).workloads


# ---------------------------------------------------------------------- #
class ConvectionDiffusionFamily(ProblemFamily):
    """1-D convection–diffusion: non-symmetric, tunable grid Péclet number.

    ``-ν u'' + c u' = f`` with central differences; the velocity is chosen
    from the requested grid Péclet number ``P = c h / (2ν)``, the knob that
    moves the problem away from symmetry (``P = 0`` recovers Poisson,
    ``P → 1`` approaches the central-difference stability limit).
    """

    name = "convection-diffusion"
    description = ("1-D convection-diffusion (non-symmetric, tunable grid "
                   "Peclet number)")

    def workloads(self, *, num_points: int = 16, peclet: float = 0.8,
                  diffusivity: float = 1.0, num_rhs: int = 1,
                  assembly: str = "structured", rng=0
                  ) -> list[LinearSystemWorkload]:
        if num_points < 2 or num_rhs < 1:
            raise ValueError("num_points must be >= 2 and num_rhs >= 1")
        if peclet < 0 or diffusivity <= 0:
            raise ValueError("peclet must be >= 0 and diffusivity positive")
        n = int(num_points)
        h = 1.0 / (n + 1)
        velocity = 2.0 * float(diffusivity) * float(peclet) / h
        diagonal = 2.0 * float(diffusivity) / h**2
        upper = -float(diffusivity) / h**2 + velocity / (2.0 * h)
        lower = -float(diffusivity) / h**2 - velocity / (2.0 * h)
        if assembly == "structured":
            # non-symmetric tridiagonal stored as CSR: O(nnz) assembly, and
            # the non-normal κ₂ — which has no closed form — is estimated
            # matrix-free by Golub–Kahan bidiagonalisation (safety-widened,
            # so the pinned value over-covers the true spectrum).
            idx = np.arange(n - 1)
            rows = np.concatenate([np.arange(n), idx, idx + 1])
            cols = np.concatenate([np.arange(n), idx + 1, idx])
            values = np.concatenate([np.full(n, diagonal),
                                     np.full(n - 1, upper),
                                     np.full(n - 1, lower)])
            matrix = CSROperator.from_coo(rows, cols, values, n)
            kappa = estimate_operator_condition(matrix, rng=0)
        elif assembly == "dense":
            check_dense_assembly(n, self.name)
            diffusion = (float(diffusivity) / h**2
                         * tridiagonal_toeplitz(n, 2.0, -1.0))
            convection = np.zeros((n, n))
            idx = np.arange(n - 1)
            convection[idx, idx + 1] = velocity / (2.0 * h)
            convection[idx + 1, idx] = -velocity / (2.0 * h)
            matrix = diffusion + convection
            # dense route keeps the exact measured κ₂ (one-off SVD).
            kappa = float(np.linalg.cond(matrix, 2))
        else:
            raise ValueError(
                f"assembly must be 'structured' or 'dense', got {assembly!r}")
        forcing = np.ones(n) / np.sqrt(n)
        rhs_list = [forcing] + random_rhs_list(n, num_rhs - 1, as_generator(rng))
        return solved_workloads(
            f"convdiff-n{n}-p{peclet:g}", matrix, rhs_list, kappa,
            {"num_points": n, "peclet": float(peclet),
             "velocity": velocity, "diffusivity": float(diffusivity),
             "assembly": assembly})


# ---------------------------------------------------------------------- #
class HelmholtzFamily(ProblemFamily):
    """Shifted (indefinite) Helmholtz operator ``T − σI`` with analytic κ.

    The default shift sits strictly between the two smallest Laplacian
    eigenvalues, so the operator is indefinite (exactly one negative
    eigenvalue) yet safely invertible — the regime where classical iterative
    methods struggle and the QSVT's sign-agnostic ``1/x`` polynomial does
    not care.
    """

    name = "helmholtz"
    description = ("shifted Helmholtz (indefinite but invertible, "
                   "analytic kappa)")

    def _shift(self, n: int, shift, shift_fraction: float) -> float:
        lam = stencil_eigenvalues(n)
        if shift is not None:
            value = float(shift)
            if np.min(np.abs(lam - value)) < 1e-12:
                raise ValueError("shift coincides with a Laplacian eigenvalue; "
                                 "the operator would be singular")
            return value
        if not 0.0 < shift_fraction < 1.0:
            raise ValueError("shift_fraction must be in (0, 1)")
        return float(lam[0] + shift_fraction * (lam[1] - lam[0]))

    def analytic_condition_number(self, *, num_points: int = 16, shift=None,
                                  shift_fraction: float = 0.5,
                                  num_rhs: int = 1,
                                  assembly: str = "structured",
                                  kappa_source: str = "analytic",
                                  rng=0) -> float:
        del num_rhs, assembly, kappa_source, rng  # no influence on the spectrum
        lam = stencil_eigenvalues(num_points)
        gaps = np.abs(lam - self._shift(int(num_points), shift, shift_fraction))
        return float(gaps.max() / gaps.min())

    def workloads(self, *, num_points: int = 16, shift=None,
                  shift_fraction: float = 0.5, num_rhs: int = 1,
                  assembly: str = "structured",
                  kappa_source: str = "analytic", rng=0
                  ) -> list[LinearSystemWorkload]:
        if num_points < 2 or num_rhs < 1:
            raise ValueError("num_points must be >= 2 and num_rhs >= 1")
        n = int(num_points)
        sigma = self._shift(n, shift, shift_fraction)
        if assembly == "structured":
            # T − σI stays tridiagonal Toeplitz (banded LU solves, exact
            # closed-form extreme eigenvalues; the *indefinite* min |λ| has
            # no endpoint formula, which is why the default pins analytic κ).
            matrix = BandedOperator.toeplitz(
                n, {0: 2.0 - sigma, 1: -1.0, -1: -1.0})
        elif assembly == "dense":
            check_dense_assembly(n, self.name)
            matrix = tridiagonal_toeplitz(n, 2.0, -1.0) - sigma * np.eye(n)
        else:
            raise ValueError(
                f"assembly must be 'structured' or 'dense', got {assembly!r}")
        if kappa_source == "analytic":
            kappa = self.analytic_condition_number(num_points=n, shift=sigma)
        elif kappa_source == "estimated":
            # Lanczos Ritz values resolve the interior min |λ| matrix-free —
            # the route workloads without a closed-form spectrum would take.
            operator = (matrix if is_structured_operator(matrix)
                        else BandedOperator.from_dense(matrix))
            kappa = float(estimate_operator_condition(operator, rng=0))
        else:
            raise ValueError(
                "kappa_source must be 'analytic' or 'estimated', "
                f"got {kappa_source!r}")
        gaps = stencil_eigenvalues(n) - sigma
        wave = np.sin(np.pi * _interior_grid(n))
        rhs_list = ([wave / np.linalg.norm(wave)]
                    + random_rhs_list(n, num_rhs - 1, as_generator(rng)))
        return solved_workloads(
            f"helmholtz-n{n}-s{sigma:.3g}", matrix, rhs_list, kappa,
            {"num_points": n, "shift": sigma, "assembly": assembly,
             "kappa_source": kappa_source,
             "indefinite": bool((gaps < 0).any() and (gaps > 0).any())})
