"""Structured-operator fast path — assembly, memory, and solve throughput.

Measures the PR-5 claims of the structured-operator layer
(:mod:`repro.linalg.operators`) against the dense baseline it replaces:

* **assembly** — building the 2-D Poisson system at ``N = 4096``
  (``grid_points = 64``) as a Kronecker-sum operator versus the dense
  ``np.kron`` assembly; the structured path must be ≥ 10x faster;
* **memory** — resident bytes of the structured storage (``nnz_bytes``,
  which is also what cache eviction and the shared-memory registry now
  charge) versus the dense ``N²·8``; ≥ 10x smaller on the refinement path;
* **solve throughput** — full mixed-precision refinement (Algorithm 2,
  exact-inverse inner solver so both paths measure the *classical*
  structured-vs-dense machinery: assembly, fingerprints, cache, residual
  matvecs, structure-exploiting vs dense direct solves) at ``N = 4096``;
* **agreement** — at an overlapping size the structured and dense paths
  produce identical solutions to 1e-12, and the matrix-free QSVT route of
  the ideal backend matches the dense SVD route to 1e-12;
* **kernels** — the vectorised wide-batch ``CSROperator.matmat`` (one
  pass of scipy's CSR kernel) against the pre-vectorisation per-column loop
  at ``N = 65536``, ``B = 64``; must be ≥ 5x faster;
* **scale** — the ``poisson-2d`` scenario end-to-end at ``N ≥ 32768``
  (``grid_points = 182``, ``N = 33124``) through the engine — a size where
  the dense path *refuses* (its assembly alone would need ≥ 8.8 GiB; see
  the dense wall in :mod:`repro.problems.base`).  The QSVT inner solve at
  that κ ≈ 1.4e4 would cost ~8e5 block-encoding calls per sweep — the
  paper's κ-scaling point — so the scale demonstration drives the
  refinement with the exact-inverse surrogate while every structured-path
  component (operator assembly, fingerprinting, compiled-solver cache,
  matrix-free residuals, Kronecker fast-diagonalisation solves) runs for
  real; the matrix-free QSVT route itself is validated at the overlapping
  sizes above;
* **scaling curve** — ``poisson-2d`` and ``graph-laplacian`` end-to-end
  through the engine over a ladder of sizes up to ``N = 2²⁰ ≥ 10⁶``.
  The graph-laplacian rungs run the *ideal-backend matrix-free QSVT
  polynomial for real* at every size (the ridge keeps κ small, so the
  degree stays benign at a million rows); the poisson-2d rungs keep the
  exact-inverse surrogate (their κ ≈ N makes the polynomial degree the
  paper's scaling obstacle, not the memory).  Every rung asserts the peak
  traced-allocation proxy stays within a constant factor of the operator's
  ``nnz_bytes`` — resident memory is ``O(nnz)``, never ``O(N²)`` — and
  that dense assembly refuses at that size.

Results go to ``benchmarks/results/sparse.txt`` and to ``BENCH_sparse.json``
at the repository root.  Run directly for the CI smoke gate::

    PYTHONPATH=src python benchmarks/bench_sparse.py --smoke
"""

import argparse
import json
import pathlib
import sys
import time
import tracemalloc

import numpy as np

from repro.core.qsvt_solver import QSVTLinearSolver
from repro.core.refinement import MixedPrecisionRefinement
from repro.engine import ScenarioRunner, build_scenario
from repro.linalg import BandedOperator
from repro.problems.graphs import graph_laplacian_operator
from repro.problems.pde import _assemble_laplacian
from repro.reporting import format_table

try:
    from .common import emit
except ImportError:          # script mode: python benchmarks/bench_sparse.py
    from common import emit

_JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_sparse.json"

#: grid size of the headline comparison (N = 4096, the old dense wall).
_GRID = 64
#: grid size of the beyond-the-wall demonstration (N = 33124 ≥ 32768).
_BIG_GRID = 182
_TARGET = 1e-8
#: acceptance floors asserted by the smoke gate.
_MIN_ASSEMBLY_SPEEDUP = 10.0
_MIN_MEMORY_REDUCTION = 10.0
_MIN_MATMAT_SPEEDUP = 5.0
_AGREEMENT_ATOL = 1e-12
#: scaling-curve ladders (dimension N): both end at N = 2²⁰ ≥ 10⁶.
_SCALING_GRIDS = [128, 256, 512, 1024]          # poisson-2d: N = grid²
_SCALING_NODES = [16384, 65536, 262144, 1048576]  # graph-laplacian cycle
#: the capped rung --smoke runs (N = 262144 for both families).
_SMOKE_GRID = 512
_SMOKE_NODES = 262144
#: peak-RSS proxy must stay within this factor of the structured storage
#: (nnz_bytes, itself O(N) for these families — versus the O(N²) dense
#: footprint, which is ~10⁶x above this budget at N = 2²⁰).
_RSS_FACTOR = 64.0


def _timed(fn, repeats: int = 1):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def _peak_bytes(fn):
    """(result, peak traced allocation) — the resident-memory proxy."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, int(peak)


def _assembly_comparison(n: int) -> dict:
    structured, t_structured = _timed(
        lambda: _assemble_laplacian(n, 2, scale=float((n + 1) ** 2),
                                    assembly="structured", family="bench"),
        repeats=3)
    dense, t_dense = _timed(
        lambda: _assemble_laplacian(n, 2, scale=float((n + 1) ** 2),
                                    assembly="dense", family="bench"))
    return {
        "dimension": n * n,
        "structured_seconds": t_structured,
        "dense_seconds": t_dense,
        "assembly_speedup": t_dense / max(t_structured, 1e-12),
        "structured_bytes": structured.nnz_bytes(),
        "dense_bytes": int(dense.nbytes),
        "memory_reduction": dense.nbytes / max(structured.nnz_bytes(), 1),
        "_structured": structured,
        "_dense": dense,
    }


def _refinement_throughput(structured, dense, rhs: np.ndarray) -> dict:
    """Full Algorithm-2 refinement on both paths, with peak-memory proxies.

    The exact-inverse surrogate keeps the inner solve classical on both
    sides, so the comparison isolates the structured-vs-dense machinery:
    dense O(N³) solves + O(N²) matvecs versus fast diagonalisation + O(nnz)
    matvecs.
    """

    def run(matrix):
        solver = QSVTLinearSolver(matrix, epsilon_l=1e-2, backend="exact",
                                  rng=0)
        driver = MixedPrecisionRefinement(solver, target_accuracy=_TARGET)
        return driver.solve(rhs)

    (res_structured, peak_structured), t_structured = _timed(
        lambda: _peak_bytes(lambda: run(structured)))
    (res_dense, peak_dense), t_dense = _timed(
        lambda: _peak_bytes(lambda: run(dense)))
    assert res_structured.converged and res_dense.converged
    return {
        "structured_solve_seconds": t_structured,
        "dense_solve_seconds": t_dense,
        "solve_speedup": t_dense / max(t_structured, 1e-12),
        "structured_peak_rss_proxy": peak_structured,
        "dense_peak_rss_proxy": peak_dense,
        "peak_memory_reduction": peak_dense / max(peak_structured, 1),
        "solution_diff": float(np.linalg.norm(res_structured.x - res_dense.x)),
    }


def _agreement(n: int) -> dict:
    """Structured vs dense end-to-end agreement at an overlapping size."""
    structured_jobs = build_scenario("poisson-2d", grid_points=n,
                                     backend="ideal",
                                     target_accuracy=1e-12).jobs
    dense_jobs = build_scenario("poisson-2d", grid_points=n, backend="ideal",
                                target_accuracy=1e-12,
                                assembly="dense").jobs
    runner = ScenarioRunner(mode="serial")
    structured_report = runner.run(structured_jobs)
    dense_report = runner.run(dense_jobs)
    diffs = [float(np.linalg.norm(s.x - d.x))
             for s, d in zip(structured_report, dense_report)]
    assert all(r.ok and r.converged for r in structured_report)
    assert all(r.ok and r.converged for r in dense_report)
    return {"grid_points": n, "dimension": n * n,
            "max_solution_diff": max(diffs)}


def _beyond_the_wall(grid: int) -> dict:
    """poisson-2d end-to-end at N ≥ 32768 through the structured path."""
    build, t_build = _timed(lambda: build_scenario(
        "poisson-2d", grid_points=grid, backend="exact",
        target_accuracy=_TARGET))
    runner = ScenarioRunner(mode="serial")
    report, t_solve = _timed(lambda: runner.run(build.jobs))
    assert all(result.ok and result.converged for result in report)
    operator = build.jobs[0].matrix
    # the dense path refuses at this size (documented wall)
    try:
        build_scenario("poisson-2d", grid_points=grid, assembly="dense")
        refused = False
    except ValueError:
        refused = True
    return {
        "grid_points": grid,
        "dimension": grid * grid,
        "build_seconds": t_build,
        "solve_seconds": t_solve,
        "structured_bytes": operator.nnz_bytes(),
        "dense_bytes_would_be": grid**4 * 8,
        "dense_path_refuses": refused,
        "cache_compiles": report.summary["cache"]["compiles"],
    }


def _kernel_throughput() -> dict:
    """Wide-batch matmat kernels against the pre-vectorisation loop."""
    n, batch = 65536, 64
    operator = graph_laplacian_operator("cycle", n)
    gen = np.random.default_rng(1)
    block = gen.standard_normal((n, batch))
    fast, t_fast = _timed(lambda: operator.matmat(block), repeats=3)
    slow, t_slow = _timed(lambda: operator._matmat_loop(block))
    assert np.allclose(fast, slow, atol=1e-10)
    banded = BandedOperator.toeplitz(n, {0: 2.5, 1: -1.0, -1: -1.0})
    _, t_banded = _timed(lambda: banded.matmat(block), repeats=3)
    return {
        "dimension": n,
        "batch": batch,
        "csr_matmat_seconds": t_fast,
        "csr_loop_seconds": t_slow,
        "csr_matmat_speedup": t_slow / max(t_fast, 1e-12),
        "banded_matmat_seconds": t_banded,
    }


def _scaling_point(name: str, *, backend: str, **params) -> dict:
    """One rung of the scaling ladder: engine end-to-end, RSS-budgeted.

    Builds the scenario (workload assembly + classical reference solutions),
    runs it through :class:`ScenarioRunner` under ``tracemalloc``, and
    checks the peak traced allocation against the ``O(nnz)`` budget plus the
    dense-assembly refusal at the same size.
    """
    build, t_build = _timed(lambda: build_scenario(
        name, backend=backend, target_accuracy=_TARGET, **params))
    runner = ScenarioRunner(mode="serial")
    (report, peak), t_solve = _timed(
        lambda: _peak_bytes(lambda: runner.run(build.jobs)))
    assert all(result.ok and result.converged for result in report)
    operator = build.jobs[0].matrix
    dimension = operator.shape[0]
    rss_budget = _RSS_FACTOR * max(operator.nnz_bytes(), 8 * dimension)
    try:
        build_scenario(name, assembly="dense", **params)
        refused = False
    except ValueError:
        refused = True
    point = {
        "dimension": dimension,
        "backend": backend,
        "kappa": float(build.jobs[0].kappa),
        "build_seconds": t_build,
        "solve_seconds": t_solve,
        "nnz_bytes": operator.nnz_bytes(),
        "dense_bytes_would_be": dimension * dimension * 8,
        "peak_rss_proxy": peak,
        "rss_over_nnz": peak / max(operator.nnz_bytes(), 1),
        "dense_path_refuses": refused,
    }
    assert peak <= rss_budget, point
    assert refused, point
    return point


def _scaling_curve(smoke: bool) -> dict:
    """poisson-2d and graph-laplacian ladders up to ``N = 2²⁰``.

    The graph-laplacian rungs run the ideal backend's matrix-free QSVT
    polynomial genuinely at every size (ridge γ = 1 keeps κ = 5, so the
    Chebyshev degree is flat across the ladder); poisson-2d keeps the
    exact-inverse surrogate since its κ ≈ N drives the degree — not the
    memory — beyond reach, exactly the paper's κ-scaling point.
    """
    grids = [_SMOKE_GRID] if smoke else _SCALING_GRIDS
    nodes = [_SMOKE_NODES] if smoke else _SCALING_NODES
    return {
        "poisson-2d": [
            _scaling_point("poisson-2d", backend="exact", grid_points=grid)
            for grid in grids],
        "graph-laplacian": [
            _scaling_point("graph-laplacian", backend="ideal",
                           topology="cycle", num_nodes=n, regularization=1.0)
            for n in nodes],
    }


def run_benchmark(smoke: bool) -> dict:
    # the assembly/memory acceptance numbers are pinned at N = 4096 even in
    # smoke mode (the dense assembly costs ~0.6 s); the refinement timing —
    # whose dense side costs ~28 s at N = 4096 — shrinks to grid 48
    # (N = 2304) under --smoke, where the ≥10x floors still hold by decades.
    assembly = _assembly_comparison(_GRID)
    assembly.pop("_structured")
    assembly.pop("_dense")
    grid = 48 if smoke else _GRID
    structured = _assemble_laplacian(grid, 2, scale=float((grid + 1) ** 2),
                                     assembly="structured", family="bench")
    dense = _assemble_laplacian(grid, 2, scale=float((grid + 1) ** 2),
                                assembly="dense", family="bench")
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(grid * grid)
    refinement = _refinement_throughput(structured, dense, rhs)
    refinement["dimension"] = grid * grid
    kernels = _kernel_throughput()
    agreement = _agreement(6 if smoke else 10)
    big = _beyond_the_wall(_BIG_GRID)
    scaling = _scaling_curve(smoke)

    results = {
        "assembly": assembly,
        "refinement": refinement,
        "kernels": kernels,
        "agreement": agreement,
        "beyond_wall": big,
        "scaling": scaling,
    }

    rows = [
        {"metric": "assembly speedup (N=4096)",
         "value": f"{assembly['assembly_speedup']:.1f}x"},
        {"metric": "memory reduction (N=4096)",
         "value": f"{assembly['memory_reduction']:.0f}x"},
        {"metric": f"refinement solve speedup (N={refinement['dimension']})",
         "value": f"{refinement['solve_speedup']:.1f}x"},
        {"metric": "peak-RSS proxy reduction",
         "value": f"{refinement['peak_memory_reduction']:.0f}x"},
        {"metric": "structured vs dense agreement",
         "value": f"{agreement['max_solution_diff']:.2e}"},
        {"metric": f"poisson-2d N={big['dimension']} wall time",
         "value": f"{big['solve_seconds']:.2f}s"},
        {"metric": "dense path at that size",
         "value": "refuses" if big["dense_path_refuses"] else "allowed"},
        {"metric": f"CSR matmat speedup (N={kernels['dimension']}, "
                   f"B={kernels['batch']})",
         "value": f"{kernels['csr_matmat_speedup']:.1f}x"},
    ]
    top_poisson = scaling["poisson-2d"][-1]
    top_graph = scaling["graph-laplacian"][-1]
    rows.append({
        "metric": f"poisson-2d N={top_poisson['dimension']} "
                  "(exact surrogate) RSS/nnz",
        "value": f"{top_poisson['solve_seconds']:.2f}s / "
                 f"{top_poisson['rss_over_nnz']:.1f}x"})
    rows.append({
        "metric": f"graph-laplacian N={top_graph['dimension']} "
                  "(matrix-free QSVT) RSS/nnz",
        "value": f"{top_graph['solve_seconds']:.2f}s / "
                 f"{top_graph['rss_over_nnz']:.1f}x"})
    emit("sparse", format_table(rows, columns=["metric", "value"],
                                title="Structured-operator fast path"))

    # ---- acceptance assertions (the CI smoke gate) -------------------- #
    assert assembly["assembly_speedup"] >= _MIN_ASSEMBLY_SPEEDUP, assembly
    assert assembly["memory_reduction"] >= _MIN_MEMORY_REDUCTION, assembly
    assert refinement["peak_memory_reduction"] >= _MIN_MEMORY_REDUCTION, refinement
    assert kernels["csr_matmat_speedup"] >= _MIN_MATMAT_SPEEDUP, kernels
    assert agreement["max_solution_diff"] <= _AGREEMENT_ATOL, agreement
    assert big["dimension"] >= 32768 and big["dense_path_refuses"], big
    # every scaling rung already asserted O(nnz) RSS + dense refusal; the
    # full ladder must reach a million rows
    if not smoke:
        assert top_poisson["dimension"] >= 10**6, top_poisson
        assert top_graph["dimension"] >= 10**6, top_graph
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes for CI (acceptance floors still "
                             "asserted at N = 4096 and N = 33124)")
    args = parser.parse_args(argv)
    results = run_benchmark(smoke=args.smoke)
    if not args.smoke or not _JSON_PATH.exists():
        _JSON_PATH.write_text(json.dumps(results, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")
        print(f"wrote {_JSON_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
