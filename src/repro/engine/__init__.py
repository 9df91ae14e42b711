"""High-throughput solve engine: batching, caching, parallel scenario running.

The rest of :mod:`repro` reproduces the paper's algorithms for *one* solve at
a time; this sub-package is the service layer that turns them into a
high-throughput system, exploiting the compile-once / solve-many structure of
Algorithm 2 along three independent axes:

* **batching** — a multi-right-hand-side QSVT solve
  (:meth:`repro.core.qsvt_solver.QSVTLinearSolver.solve_batch`) replays the
  compiled :class:`~repro.quantum.plan.ExecutionPlan` once over a
  ``(B, 2**n)`` stack of states, so ``B`` solves cost one circuit sweep
  instead of ``B``;
* **caching** — :class:`~repro.engine.cache.CompiledSolverCache` keys compiled
  solvers (block-encoding + polynomial + QSP phases + fused execution plans)
  on the exact matrix bytes, so repeated requests against the same system
  skip synthesis *and* plan fusion entirely, with byte-accounted LRU
  eviction (``max_bytes``);
* **parallelism** — :class:`~repro.engine.runner.ScenarioRunner` fans
  independent :class:`~repro.engine.runner.SolveJob` requests out across a
  thread pool, with per-job fault isolation; in process mode each job's
  Algorithm 2 runs in the caller and its inner solves go to the worker
  processes of a :class:`~repro.serving.frontend.ClusterEngine`.

On top of the three axes sits the **zero-copy serving layer**, which keeps
the compile-once / solve-many advantage intact across process and run
boundaries:

* **shared-memory hand-off** — :mod:`repro.engine.sharedmem` publishes each
  distinct matrix into a shared segment once; requests to worker processes
  carry a fingerprint handle instead of the ``N x N`` payload and workers
  attach zero-copy read-only views;
* **persistent synthesis store** — :class:`~repro.engine.store.SynthesisStore`
  spills compiled payloads (phases, polynomial, fused plan gate bytes) to
  disk keyed by matrix fingerprint, so fresh processes and repeated runs
  restore in milliseconds instead of re-synthesising.

Concurrent requests are coalesced by the serving tier: each
:mod:`repro.serving.worker` answers the same-key solves queued together
with one fused ``solve_batch`` sweep.

:mod:`repro.engine.registry` binds everything together behind a discoverable
scenario API (``build_scenario("kappa-sweep", ...)``).  See
``benchmarks/bench_engine_throughput.py`` for the measured batched-vs-looped
speedup and cache behaviour, and ``benchmarks/bench_serving.py`` for the
serving-layer numbers (shared memory vs pickling, cold vs warm store).
"""

from .autotune import Autotuner, FamilyProfile, ProfileStore, TunedConfig
from .cache import CompiledSolverCache
from .registry import (
    Scenario,
    build_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
    unregister_scenario,
)
from .runner import JobResult, RunReport, ScenarioRunner, SolveJob, execute_job
from .sharedmem import (
    SharedMatrixHandle,
    SharedMatrixRegistry,
    attach_matrix,
    detach_all,
)
from .store import SynthesisStore, TieredSynthesisStore, default_store_path

__all__ = [
    "Autotuner",
    "TunedConfig",
    "FamilyProfile",
    "ProfileStore",
    "CompiledSolverCache",
    "SynthesisStore",
    "TieredSynthesisStore",
    "default_store_path",
    "SharedMatrixHandle",
    "SharedMatrixRegistry",
    "attach_matrix",
    "detach_all",
    "SolveJob",
    "JobResult",
    "RunReport",
    "execute_job",
    "ScenarioRunner",
    "Scenario",
    "register_scenario",
    "unregister_scenario",
    "build_scenario",
    "list_scenarios",
    "scenario_names",
]

# Importing the problem suite last registers its families (2-D/3-D Poisson,
# heat-equation chains, convection-diffusion, Helmholtz, graph Laplacians,
# prescribed-spectrum systems) in the scenario registry above, so
# ``list_scenarios()`` discovers them without an extra import.
from .. import problems as _problems  # noqa: E402,F401  (registration side effect)
