"""Problem-suite substrate: the :class:`ProblemFamily` protocol and chains.

The paper's experiments stop at ``N = 16`` random matrices and the 1-D
Poisson specialisation; the engine built in PRs 1–3 (batched sweeps, the
compiled-solver cache, the synthesis store, shared-memory workers) needs
*diverse* workload streams to show what that machinery buys.  A
:class:`ProblemFamily` is the unit of diversity: it generates
:class:`~repro.applications.workloads.LinearSystemWorkload` lists (each with
a classically computed exact solution, so every result is checkable) and
wraps them into :class:`~repro.engine.runner.SolveJob`s that flow through
:class:`~repro.engine.runner.ScenarioRunner` (and its
:class:`~repro.serving.frontend.ClusterEngine` in process mode) unchanged.

Families with known spectra report an **analytic condition number** — the
generalisation of the paper's ``κ = O(N²)`` Poisson formula — which is
pinned on the jobs (skipping the ``O(N³)`` SVD in the solver) and registered
as a κ growth model with :mod:`repro.core.cost_model` for the autotuner.

Time-stepping families additionally emit :class:`SolveChain`s: *ordered* job
sequences against one fixed operator, where every step shares the operator's
fingerprint — the ideal cache/store workload (one synthesis, ``T − 1`` cache
hits).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..applications.workloads import LinearSystemWorkload
from ..engine.runner import SolveJob
from ..linalg import random_rhs
from ..linalg.operators import (
    DENSE_MATERIALIZE_WALL,
    DENSE_WALL_ENV_VAR,
    dense_wall,
)
from ..utils import is_linear_operator, matrix_fingerprint

__all__ = [
    "ProblemFamily",
    "SolveChain",
    "DENSE_ASSEMBLY_WALL",
    "check_dense_assembly",
    "default_epsilon_l",
    "workload_jobs",
    "random_rhs_list",
    "solved_workloads",
]

#: dimension above which ``assembly="dense"`` refuses.  An ``N x N`` float64
#: array above this wall is ≥ 0.5 GiB *per copy* (assembly, SVD workspace,
#: cache entry, per-worker pickle), which is exactly the regime the
#: structured path exists for.  This is the *same* wall every
#: ``to_dense()`` materialisation honours
#: (:data:`repro.linalg.operators.DENSE_MATERIALIZE_WALL`), and the single
#: ``REPRO_DENSE_WALL`` environment override moves both together.
DENSE_ASSEMBLY_WALL = DENSE_MATERIALIZE_WALL


def check_dense_assembly(dimension: int, family: str) -> None:
    """Refuse dense assembly beyond the wall (see :data:`DENSE_ASSEMBLY_WALL`)."""
    wall = dense_wall()
    if int(dimension) > wall:
        raise ValueError(
            f"{family}: dense assembly of an N={dimension} system exceeds the "
            f"dense wall ({wall}); use assembly='structured' (the default) or "
            f"raise {DENSE_WALL_ENV_VAR} if you accept the memory cost")


def random_rhs_list(dimension: int, count: int, rng=None) -> list:
    """Unit-norm random right-hand sides (the multi-RHS variants' stream)."""
    return [random_rhs(dimension, rng=rng) for _ in range(count)]


def solved_workloads(name: str, matrix, rhs_list, kappa: float,
                     metadata: dict) -> list[LinearSystemWorkload]:
    """Package ``(A, b_i)`` pairs with their classical exact solutions.

    All workloads share the *same matrix object* (so downstream consumers —
    the cluster's publish memo, the compiled-solver cache — treat them as one
    problem, which they are) and the exact solutions come from a single
    factorisation of the stacked right-hand-side block.  Structured
    operators solve through their own structure-exploiting route (Thomas /
    banded LU, Kronecker fast diagonalisation, CG) instead of a dense
    ``O(N³)`` factorisation.
    """
    if is_linear_operator(matrix):
        solutions = matrix.solve(np.column_stack(rhs_list))
    else:
        solutions = np.linalg.solve(matrix, np.column_stack(rhs_list))
    workloads = []
    for index, rhs in enumerate(rhs_list):
        label = name if len(rhs_list) == 1 else f"{name}-rhs{index}"
        workloads.append(LinearSystemWorkload(
            name=label, matrix=matrix, rhs=rhs,
            solution=solutions[:, index], condition_number=float(kappa),
            metadata={**metadata, "rhs_index": index}))
    return workloads


def default_epsilon_l(kappa: float, *, safety: float = 0.1,
                      ceiling: float = 1e-2) -> float:
    """κ-aware inner accuracy: ``min(ceiling, safety/κ)``.

    Guarantees the Theorem III.1 contraction ``ε_l κ <= safety < 1`` for any
    family, so jobs built with default parameters always converge; the
    autotuner refines this starting point against the cost model.
    """
    return float(min(ceiling, safety / max(float(kappa), 1.0)))


def workload_jobs(workloads, *, epsilon_l: float | None = None,
                  target_accuracy: float | None = 1e-8,
                  backend: str = "auto", family: str | None = None
                  ) -> list[SolveJob]:
    """Wrap workloads into runnable jobs, pinning each workload's κ.

    ``epsilon_l=None`` (default) picks the κ-aware
    :func:`default_epsilon_l` per workload; chains pass the same ε_l for
    every step so the whole sequence maps onto one compiled-solver cache
    entry.
    """
    jobs = []
    for workload in workloads:
        kappa = float(workload.condition_number)
        metadata = dict(workload.metadata)
        if family is not None:
            metadata.setdefault("family", family)
        jobs.append(SolveJob(
            name=workload.name, matrix=workload.matrix, rhs=workload.rhs,
            epsilon_l=(default_epsilon_l(kappa) if epsilon_l is None
                       else float(epsilon_l)),
            target_accuracy=target_accuracy, backend=backend, kappa=kappa,
            metadata=metadata))
    return jobs


@dataclass
class SolveChain:
    """An ordered sequence of solves against one fixed operator.

    Implicit time stepping (``A u_{k+1} = u_k``) produces exactly this shape:
    every step presents the *same matrix object* with a new right-hand side.
    All steps therefore share one fingerprint — a chain of ``T`` steps costs
    one synthesis and ``T − 1`` compiled-solver cache hits.

    Attributes
    ----------
    name:
        Chain identifier (also stamped into each step's metadata).
    matrix:
        The fixed operator, shared by reference across every step.
    workloads:
        Ordered per-step workloads; ``workloads[k].rhs`` is the state after
        ``k`` steps and ``workloads[k].solution`` the classically computed
        state after ``k + 1``.
    metadata:
        Chain-level parameters (``dt``, diffusivity, ...).
    """

    name: str
    matrix: np.ndarray
    workloads: list[LinearSystemWorkload]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.workloads)

    @property
    def fingerprint(self) -> str:
        """Content hash of the shared operator (the cache key prefix)."""
        return matrix_fingerprint(self.matrix)

    @property
    def states(self) -> np.ndarray:
        """Classically computed trajectory, ``(T + 1, N)`` including ``u_0``."""
        return np.vstack([self.workloads[0].rhs]
                         + [w.solution for w in self.workloads])

    def jobs(self, *, epsilon_l: float | None = None,
             target_accuracy: float | None = 1e-8,
             backend: str = "auto") -> list[SolveJob]:
        """Ordered jobs for the chain (one shared ε_l across all steps)."""
        if epsilon_l is None:
            epsilon_l = default_epsilon_l(self.workloads[0].condition_number)
        return workload_jobs(self.workloads, epsilon_l=epsilon_l,
                             target_accuracy=target_accuracy, backend=backend,
                             family=self.metadata.get("family"))


class ProblemFamily(abc.ABC):
    """A named, parameterised generator of checkable linear-system workloads.

    Subclasses set :attr:`name` / :attr:`description` and implement
    :meth:`workloads`; everything else (job wrapping, scenario registration,
    κ-model registration) is inherited.  ``workloads(**params)`` must be
    deterministic for fixed parameters — every random choice is drawn from a
    seeded generator parameter — so tests and benchmarks can rebuild the
    exact solutions a run is validated against.
    """

    #: registry name (also the scenario name in :mod:`repro.engine.registry`).
    name: str = ""
    #: one-line summary shown by ``list_scenarios()``.
    description: str = ""

    @abc.abstractmethod
    def workloads(self, **params) -> list[LinearSystemWorkload]:
        """Generate the family's workloads for the given parameters."""

    def analytic_condition_number(self, **params) -> float | None:
        """Closed-form κ for these parameters; ``None`` when unknown.

        Families with known spectra override this; the value doubles as the
        κ growth model registered with :mod:`repro.core.cost_model`.
        """
        return None

    def jobs(self, *, epsilon_l: float | None = None,
             target_accuracy: float | None = 1e-8, backend: str = "auto",
             **params) -> list[SolveJob]:
        """Runnable jobs for this family (the scenario-registry builder).

        Solver knobs (``epsilon_l``, ``target_accuracy``, ``backend``) are
        split from the family parameters so the same workload stream can be
        replayed under different configurations — which is exactly what the
        autotuner does.
        """
        return workload_jobs(self.workloads(**params), epsilon_l=epsilon_l,
                             target_accuracy=target_accuracy, backend=backend,
                             family=self.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
