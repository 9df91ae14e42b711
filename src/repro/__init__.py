"""repro — mixed-precision quantum-classical linear system solver.

Reproduction of Koska, Baboulin, Gazda, "A mixed-precision quantum-classical
algorithm for solving linear systems" (IPPS 2025, arXiv:2502.02212).

The package is organised bottom-up (see ``DESIGN.md`` for the full inventory):

* :mod:`repro.precision` — floating-point formats and rounding emulation;
* :mod:`repro.linalg` — classical linear-algebra substrate and test problems;
* :mod:`repro.quantum` — dense state-vector simulator, Pauli utilities,
  fault-tolerant resource model;
* :mod:`repro.stateprep` / :mod:`repro.blockencoding` — encodings of vectors
  and matrices into circuits;
* :mod:`repro.qsp` — Chebyshev inverse polynomial (Eq. 4), QSP phase factors,
  QSVT circuits;
* :mod:`repro.core` — the QSVT linear solver and the mixed-precision
  iterative refinement (Algorithms 1–2), cost and communication models;
* :mod:`repro.baselines` — HHL, HHL+IR, VQLS and classical direct solvers;
* :mod:`repro.applications` — Poisson and random workloads;
* :mod:`repro.problems` — the workload suite: 2-D/3-D Poisson, heat-equation
  time-stepping chains, convection-diffusion, Helmholtz, graph Laplacians
  and prescribed-spectrum banded systems, each with classical exact
  solutions and (where known) analytic condition numbers;
* :mod:`repro.engine` — high-throughput service layer: a compiled-solver
  LRU cache, a persistent synthesis store, shared-memory matrix hand-off, a
  parallel scenario runner + registry and the cost-model/telemetry
  autotuner;
* :mod:`repro.serving` — the multi-process serving tier: a
  :class:`~repro.serving.frontend.ClusterEngine` routes each solve to a
  worker process whose batch loop answers same-matrix requests with one
  fused sweep (``await asyncio.wrap_future(cluster.submit(A, b))`` from
  asyncio code);
* :mod:`repro.reporting` — text tables/series used by the benchmark harness.

Quickstart
----------
>>> import numpy as np
>>> from repro import QSVTLinearSolver, MixedPrecisionRefinement
>>> from repro.applications import random_workload
>>> w = random_workload(16, kappa=10.0, rng=0)
>>> solver = QSVTLinearSolver(w.matrix, epsilon_l=1e-2)
>>> result = MixedPrecisionRefinement(solver, target_accuracy=1e-10).solve(w.rhs)
>>> bool(result.converged)
True
"""

from ._version import __version__
from .core import (
    MixedPrecisionRefinement,
    QSVTLinearSolver,
    RefinementResult,
    SingleSolveRecord,
    mixed_precision_lu_refinement,
    refine,
)
from .engine import (
    Autotuner,
    CompiledSolverCache,
    JobResult,
    RunReport,
    ScenarioRunner,
    SolveJob,
    SynthesisStore,
    build_scenario,
    list_scenarios,
)
from .exceptions import ReproError

__all__ = [
    "__version__",
    "ReproError",
    "QSVTLinearSolver",
    "MixedPrecisionRefinement",
    "refine",
    "mixed_precision_lu_refinement",
    "RefinementResult",
    "SingleSolveRecord",
    "Autotuner",
    "CompiledSolverCache",
    "SynthesisStore",
    "ScenarioRunner",
    "SolveJob",
    "JobResult",
    "RunReport",
    "build_scenario",
    "list_scenarios",
]
