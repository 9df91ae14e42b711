"""Parallel scenario runner: fan independent solve jobs out across workers.

A production deployment of the paper's pipeline answers streams of
independent requests — different matrices, different right-hand sides,
different accuracy targets.  Each request is CPU-bound dense simulation with
no shared state beyond the compiled synthesis, which makes the workload
embarrassingly parallel.  :class:`ScenarioRunner` models it as a queue of
:class:`SolveJob` descriptions, each run to completion by
:func:`execute_job`:

* ``mode="serial"`` — run in the calling thread (the reference semantics the
  tests compare the parallel modes against);
* ``mode="thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
  numpy releases the GIL inside its kernels, so threads already overlap the
  heavy contractions and share one :class:`~repro.engine.cache.CompiledSolverCache`;
* ``mode="process"`` — the same thread pool, but every inner solve runs on
  a :class:`~repro.serving.frontend.ClusterEngine` worker process.

Process mode is the paper's Fig. 1 split.  Algorithm 2 runs in the caller —
the fp64 residuals, the convergence tests and the Theorem III.1 bound — and
each ε_l-accurate QSVT solve is one ``submit`` to the cluster, the "device".
The cluster is the one multi-process execution backend of the package, so
process mode inherits everything it does:

* **shared-memory hand-off** (default) — each distinct matrix is published
  once into a shared segment and requests carry a fingerprint handle, so
  ``N x N`` payloads cross the process boundary once per *matrix*;
* **persistent synthesis store** (``store=``) — workers spill and restore
  compiled payloads through it, so fresh worker processes (and fresh *runs*)
  skip synthesis for matrices any previous process already compiled;
* **thread pinning** (``threads_per_worker``, default 1) — worker BLAS /
  OpenMP pools are capped so ``max_workers`` processes times the BLAS thread
  count cannot oversubscribe the machine;
* **coalescing and supervision** — same-matrix solves queued together share
  one fused sweep, and a worker that dies is respawned while its requests
  are redispatched, so a crash costs time, not the run.

Jobs are plain data (numpy arrays + strings); results come back as
:class:`JobResult` records in submission order, with per-job failures
captured in ``error`` instead of aborting the whole run.
:meth:`ScenarioRunner.run` returns a :class:`RunReport` — a plain ``list`` of
results with an attached ``summary`` aggregating throughput and the
per-worker cache/store telemetry.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..core.qsvt_solver import default_kappa
from ..core.refinement import MixedPrecisionRefinement
from ..quantum.plan import plan_cache
from .cache import CompiledSolverCache

__all__ = ["SolveJob", "JobResult", "RunReport", "execute_job", "ScenarioRunner"]

#: caller threads per cluster worker in process mode.  Each thread drives one
#: job's Algorithm 2 and blocks on its solves, so a few per worker keep every
#: worker queue fed (and coalescing) without one thread per job.
_CALLERS_PER_WORKER = 4


@dataclass
class SolveJob:
    """One independent linear-system request.

    Attributes
    ----------
    name:
        Identifier echoed into the matching :class:`JobResult`.
    matrix / rhs:
        The system ``A x = b`` (a dense array or a structured operator).
    epsilon_l:
        Inner (single-solve) accuracy of the QSVT solver.
    target_accuracy:
        When set, the job runs full mixed-precision refinement (Algorithm 2)
        down to this scaled residual; when ``None`` the job is a single QSVT
        solve at ``epsilon_l``.
    backend:
        Backend *name* (``"auto"``, ``"circuit"``, ``"ideal"``, ``"exact"``) —
        names keep the job picklable and cache-friendly.
    kappa:
        Optional pinned condition number.
    backend_options:
        Extra keyword arguments for the backend factory.
    metadata:
        Free-form labels (scenario parameters etc.), copied to the result.
    """

    name: str
    matrix: np.ndarray | None
    rhs: np.ndarray
    epsilon_l: float = 1e-2
    target_accuracy: float | None = None
    backend: str = "auto"
    kappa: float | None = None
    backend_options: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


@dataclass
class JobResult:
    """Outcome of one :class:`SolveJob`.

    ``error`` is ``None`` on success; on failure it holds the exception
    rendered as ``"TypeName: message"`` and the numeric fields are zeroed.
    ``worker`` is filled by process-mode execution as ``{"worker": id}``,
    the cluster worker that answered the job's last solve.
    """

    name: str
    x: np.ndarray | None
    scaled_residual: float
    converged: bool
    iterations: int
    block_encoding_calls: int
    wall_time: float
    error: str | None = None
    metadata: dict = field(default_factory=dict)
    worker: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the job completed without raising."""
        return self.error is None


class RunReport(list):
    """Results of one :meth:`ScenarioRunner.run` call.

    A plain ``list`` of :class:`JobResult` (so existing indexing/iteration
    code keeps working) with a :attr:`summary` dict aggregating the run:
    throughput (``jobs_per_sec``), compiled-solver cache stats (per worker
    in process mode), process-wide plan-cache stats, persistent-store hits
    and shared-memory segment accounting.
    """

    #: aggregate telemetry of the run; populated by :meth:`ScenarioRunner.run`.
    summary: dict

    def __init__(self, results=(), summary: dict | None = None) -> None:
        super().__init__(results)
        self.summary = summary if summary is not None else {}


def execute_job(job: SolveJob, cache) -> JobResult:
    """Run one job to completion.

    The solver comes from ``cache.solver(...)`` — a
    :class:`~repro.engine.cache.CompiledSolverCache`, so a batch of jobs
    against one matrix pays for a single synthesis, or process mode's
    cluster adapter with the same signature.  Exceptions are captured into
    ``JobResult.error``.
    """
    start = time.perf_counter()
    try:
        solver = cache.solver(
            job.matrix, epsilon_l=job.epsilon_l, backend=job.backend,
            kappa=job.kappa, **job.backend_options)
        if job.target_accuracy is not None:
            result = MixedPrecisionRefinement(
                solver, target_accuracy=job.target_accuracy).solve(job.rhs)
            outcome = dict(
                x=result.x,
                scaled_residual=float(result.history[-1].scaled_residual),
                converged=bool(result.converged),
                iterations=int(result.iterations),
                block_encoding_calls=int(result.total_block_encoding_calls))
        else:
            record = solver.solve(job.rhs)
            outcome = dict(
                x=record.x, scaled_residual=float(record.scaled_residual),
                converged=bool(record.scaled_residual <= job.epsilon_l),
                iterations=0,
                block_encoding_calls=int(record.block_encoding_calls))
    except Exception as exc:  # noqa: BLE001 - per-job fault isolation
        return JobResult(
            name=job.name, x=None, scaled_residual=float("nan"),
            converged=False, iterations=0, block_encoding_calls=0,
            wall_time=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
            metadata=dict(job.metadata))
    return JobResult(name=job.name, wall_time=time.perf_counter() - start,
                     metadata=dict(job.metadata),
                     worker=dict(getattr(solver, "worker", {})), **outcome)


class _ClusterSolvers:
    """Process mode's solver source: :meth:`CompiledSolverCache.solver`'s
    signature, returning a :class:`_ClusterSolver` over ``cluster``."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def solver(self, matrix, **params) -> "_ClusterSolver":
        return _ClusterSolver(self.cluster, matrix, **params)


class _ClusterSolver:
    """An ε_l-accurate inner solver whose solves run on cluster workers.

    It offers what :class:`~repro.core.refinement.MixedPrecisionRefinement`
    reads from a :class:`~repro.core.qsvt_solver.QSVTLinearSolver`.  κ is
    measured here, once per job, when the job does not pin it, and then
    pinned on every request, so no worker measures it again.  The achieved
    ε_l does not cross the wire, so the driver bounds its iterations with
    the nominal ε_l.  ``worker`` names the worker that answered the last
    solve.
    """

    def __init__(self, cluster, matrix, *, epsilon_l: float = 1e-2,
                 backend: str = "auto", kappa: float | None = None,
                 fingerprint: str | None = None, **backend_options) -> None:
        self.cluster = cluster
        self.matrix = matrix
        self.epsilon_l = float(epsilon_l)
        self.kappa = float(default_kappa(matrix) if kappa is None else kappa)
        self.dimension = int(matrix.shape[0])
        self.backend_name = backend
        self.backend_options = backend_options
        self.worker: dict = {}

    def solve(self, rhs):
        return self.solve_batch([rhs])[0]

    def solve_batch(self, rhs_batch) -> list:
        """One request per row, submitted together so the owning worker
        coalesces them into one fused sweep."""
        futures = [self.cluster.submit(
            self.matrix, rhs, epsilon_l=self.epsilon_l,
            backend=self.backend_name, kappa=self.kappa,
            **self.backend_options) for rhs in rhs_batch]
        records = [future.result() for future in futures]
        self.worker = {"worker": futures[-1].worker_id}
        return records


class ScenarioRunner:
    """Execute a list of :class:`SolveJob` across a worker pool.

    Parameters
    ----------
    mode:
        ``"serial"``, ``"thread"`` or ``"process"`` (see module docstring).
    max_workers:
        Pool size — threads in thread mode, cluster worker processes in
        process mode; defaults to ``os.cpu_count()`` capped at 8 (dense
        simulation saturates memory bandwidth before it saturates many cores).
    cache:
        Compiled-solver cache shared by the serial and thread modes (process
        workers keep their own caches).  A fresh cache is created when
        omitted — wired to ``store`` if one is given.
    store:
        Optional :class:`~repro.engine.store.SynthesisStore` (or its
        directory): it backs the default cache of the serial/thread modes,
        and process-mode workers share it as their store directory (spill +
        restore compiled payloads across processes and runs).
    use_shared_memory:
        Process mode only: hand matrices to workers through shared-memory
        segments (one copy per distinct matrix) instead of pickling them per
        request.  Default on; turn off to fall back to the pure-pickle path
        (platforms without ``/dev/shm``-style shared memory).
    threads_per_worker:
        BLAS/OpenMP thread cap applied to each worker process (default ``1`` —
        ``max_workers`` ≈ core count with multi-threaded BLAS oversubscribes
        badly).  ``None`` leaves the library defaults untouched.

    In process mode, use the runner as a context manager to keep one warm
    cluster (worker caches and shared-memory segments) across several
    :meth:`run` calls; otherwise each run starts and closes its own.  A
    run's summary then reports the cluster's lifetime counters, as thread
    mode's shared cache does.
    """

    _MODES = ("serial", "thread", "process")

    def __init__(self, *, mode: str = "thread", max_workers: int | None = None,
                 cache: CompiledSolverCache | None = None,
                 store=None, use_shared_memory: bool = True,
                 threads_per_worker: int | None = 1) -> None:
        if mode not in self._MODES:
            raise ValueError(f"unknown mode {mode!r}; choose from {self._MODES}")
        self.mode = mode
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if threads_per_worker is not None and threads_per_worker < 1:
            raise ValueError("threads_per_worker must be >= 1 (or None)")
        self.max_workers = int(max_workers)
        self.store = store
        self.use_shared_memory = bool(use_shared_memory)
        self.threads_per_worker = (None if threads_per_worker is None
                                   else int(threads_per_worker))
        self.cache = cache if cache is not None else CompiledSolverCache(store=store)
        self._cluster = None

    # ------------------------------------------------------------------ #
    # the process-mode cluster
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ScenarioRunner":
        if self.mode == "process" and self._cluster is None:
            self._cluster = self._open_cluster()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Stop the warm cluster, if any: its workers and its segments."""
        if self._cluster is not None:
            self._cluster.close()
            self._cluster = None

    def _open_cluster(self):
        """A cluster that never sheds or silently degrades a runner job.

        One owner per matrix (no replicas, so no hedging), no admission
        bound, and no classical fallback: a solve the fleet cannot answer
        becomes that job's ``error``.
        """
        from ..serving.frontend import ClusterEngine

        return ClusterEngine(
            num_workers=self.max_workers, replication_factor=1,
            queue_limit=None, degraded_fallback=False,
            use_shared_memory=self.use_shared_memory,
            threads_per_worker=self.threads_per_worker,
            shared_store_dir=(None if self.store is None else
                              str(getattr(self.store, "path", self.store))))

    # ------------------------------------------------------------------ #
    def run(self, jobs) -> RunReport:
        """Execute every job and return results in submission order.

        Individual failures are recorded in ``JobResult.error``, including
        solves a dead cluster could not answer; the run itself does not
        raise for them.  The returned :class:`RunReport` behaves as the
        familiar ``list[JobResult]`` and carries the aggregate telemetry in
        ``report.summary``.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        if self.mode == "serial" or not jobs:
            results = [execute_job(job, self.cache) for job in jobs]
            return self._report(results, start)
        if self.mode == "thread":
            return self._report(self._pool(jobs, self.cache, self.max_workers),
                                start)
        cluster = self._cluster or self._open_cluster()
        try:
            results = self._pool(jobs, _ClusterSolvers(cluster),
                                 _CALLERS_PER_WORKER * self.max_workers)
            return self._report(results, start, cluster)
        finally:
            if cluster is not self._cluster:
                cluster.close()

    @staticmethod
    def _pool(jobs, cache, threads: int) -> list[JobResult]:
        with ThreadPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            return list(pool.map(lambda job: execute_job(job, cache), jobs))

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def _report(self, results, start: float, cluster=None) -> RunReport:
        """The :class:`RunReport` of ``results``; in process mode the
        summary reads the cluster's per-worker and shared-memory stats."""
        wall_time = time.perf_counter() - start
        ok = sum(1 for result in results if result.ok)
        summary = {
            "mode": self.mode,
            "max_workers": self.max_workers,
            "threads_per_worker": self.threads_per_worker,
            "jobs": len(results),
            "ok": ok,
            "failed": len(results) - ok,
            "wall_time_s": wall_time,
            "jobs_per_sec": (len(results) / wall_time) if wall_time > 0 else 0.0,
            "plan_cache": plan_cache().stats(),
            "shared_memory": None,
        }
        if cluster is not None:
            stats = cluster.stats(include_workers=False)
            summary["shared_memory"] = stats["shared_memory"]
            summary.update(_fold_worker_stats(cluster.worker_stats(),
                                              stats["submitted"]))
        elif self.mode == "process":  # no jobs, so no cluster was started
            summary.update(_fold_worker_stats({}, 0))
        else:
            summary["cache"] = self.cache.stats()
            summary["workers"] = 1 if self.mode == "serial" else self.max_workers
        return RunReport(results, summary=summary)

    def run_scenario(self, name: str, **params) -> RunReport:
        """Build a registered scenario (see :mod:`repro.engine.registry`) and run it."""
        from .registry import build_scenario

        return self.run(build_scenario(name, **params).jobs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ScenarioRunner(mode={self.mode!r}, "
                f"max_workers={self.max_workers}, "
                f"use_shared_memory={self.use_shared_memory})")


def _fold_worker_stats(worker_stats: dict, submitted: int) -> dict:
    """Run-wide totals from ``ClusterEngine.worker_stats()``.

    ``worker_cache_stats`` maps each worker id to its cache snapshot (a
    retired worker's farewell snapshot, when it sent one), and ``cache``
    sums them.  ``sweeps["requests"]`` is ``submitted``, the front end's
    ``cluster_submitted_total``, so it stays exact after a worker crash;
    ``sweeps["batches"]`` (the fused sweeps, one cache lookup each) and
    ``cache`` count surviving incarnations only: a killed worker sends no
    farewell, so its counters are lost.
    """
    snapshots = {}
    for worker_id, stats in worker_stats.items():
        stats = stats.get("final") if stats.get("retired") else stats
        if stats and "cache" in stats:
            snapshots[worker_id] = stats
    caches = {worker_id: stats["cache"]
              for worker_id, stats in snapshots.items()}
    cache = {counter: sum(stats.get(counter, 0) for stats in caches.values())
             for counter in ("hits", "misses", "compiles", "store_hits")}
    stores = [stats["store"] for stats in caches.values() if "store" in stats]
    if stores:
        cache["store"] = {
            counter: sum(store.get(counter, 0) for store in stores)
            for counter in ("hits", "misses", "stores", "corrupt", "errors")}
    return {
        "cache": cache,
        "workers": len(caches),
        "worker_cache_stats": caches,
        "sweeps": {"requests": submitted,
                   "batches": sum(stats["batches"]
                                  for stats in snapshots.values())},
    }
