"""Structured operators: storage, application, bounds, solves, transport.

Covers the PR-5 tentpole — the `repro.linalg.operators` layer and its
threading through the solver stack:

* matvec / matmat / ``@`` agreement with dense references for every form;
* exact extreme-eigenvalue bounds (closed-form tridiagonal Toeplitz,
  Kronecker sums, affine shifts) against ``eigvalsh``;
* structure-exploiting classical solves to machine precision;
* fingerprint distinctness (banded vs CSR vs dense) and stability;
* the ideal backend's matrix-free route vs the dense SVD route (1e-12);
* engine integration: compiled-solver cache byte accounting, shared-memory
  round trips, end-to-end structured scenarios, dense-wall refusal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.qsvt_solver import QSVTLinearSolver
from repro.core.refinement import MixedPrecisionRefinement
from repro.engine import CompiledSolverCache, ScenarioRunner, build_scenario
from repro.engine.sharedmem import SharedMatrixRegistry, attach_matrix, detach_all
from repro.linalg import (
    BandedOperator,
    CSROperator,
    DiagonalShiftOperator,
    KroneckerSumOperator,
    condition_number,
    is_structured_operator,
    operator_from_state,
    tridiagonal_toeplitz,
)
from repro.utils import Registry, matrix_fingerprint, payload_nbytes


def _poisson_operator(n: int, dims: int = 2) -> KroneckerSumOperator:
    return KroneckerSumOperator([tridiagonal_toeplitz(n, 2.0, -1.0)] * dims,
                                scale=float((n + 1) ** 2))


# ---------------------------------------------------------------------- #
# application + storage
# ---------------------------------------------------------------------- #
def _nonsymmetric_banded() -> BandedOperator:
    rng = np.random.default_rng(21)
    return BandedOperator(12, {0: rng.standard_normal(12),
                               1: rng.standard_normal(11),
                               -2: rng.standard_normal(10)})


def _nonsymmetric_csr() -> CSROperator:
    rng = np.random.default_rng(22)
    dense = rng.standard_normal((12, 12)) * (rng.random((12, 12)) < 0.3)
    return CSROperator.from_dense(dense + np.diag(np.full(12, 3.0)))


def _nonsymmetric_kronecker() -> KroneckerSumOperator:
    rng = np.random.default_rng(23)
    return KroneckerSumOperator([rng.standard_normal((3, 3)),
                                 rng.standard_normal((4, 4))], scale=1.5)


@pytest.mark.parametrize("make", [
    lambda: BandedOperator.toeplitz(12, {0: 2.0, 1: -1.0, -1: -1.0}),
    lambda: CSROperator.from_dense(tridiagonal_toeplitz(12, 2.0, -1.0)),
    lambda: KroneckerSumOperator([tridiagonal_toeplitz(4, 2.0, -1.0)] * 2,
                                 scale=3.0),
    lambda: DiagonalShiftOperator(
        CSROperator.from_dense(tridiagonal_toeplitz(12, 2.0, -1.0)),
        shift=0.7, scale=2.0),
    _nonsymmetric_banded,
    _nonsymmetric_csr,
    _nonsymmetric_kronecker,
    lambda: DiagonalShiftOperator(_nonsymmetric_csr(), shift=0.7, scale=2.0),
    lambda: DiagonalShiftOperator(_nonsymmetric_kronecker(), shift=-0.4),
])
def test_matvec_matmat_match_dense(make):
    operator = make()
    dense = operator.to_dense()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(operator.shape[0])
    block = rng.standard_normal((operator.shape[0], 3))
    np.testing.assert_allclose(operator @ x, dense @ x, atol=1e-12)
    np.testing.assert_allclose(operator @ block, dense @ block, atol=1e-12)
    # every public name of the one ``_apply`` kernel, against A and Aᵀ, with
    # the 1-D form bit-identical to a one-column 2-D operand
    for vec_name, mat_name, reference in (("matvec", "matmat", dense),
                                          ("rmatvec", "rmatmat", dense.T)):
        vec, mat = getattr(operator, vec_name), getattr(operator, mat_name)
        np.testing.assert_allclose(vec(x), reference @ x, atol=1e-12)
        np.testing.assert_allclose(mat(block), reference @ block, atol=1e-12)
        assert np.array_equal(vec(x), mat(x[:, None])[:, 0]), vec_name
        assert vec(x).shape == x.shape and mat(block).shape == block.shape
        assert mat(block[:, :0]).shape == (operator.shape[0], 0)
    assert operator.nnz_bytes() < dense.nbytes
    assert payload_nbytes(operator) == operator.nnz_bytes()
    assert is_structured_operator(operator)


def test_structured_storage_is_immutable():
    operator = BandedOperator.toeplitz(8, {0: 2.0, 1: -1.0, -1: -1.0})
    with pytest.raises(ValueError):
        operator.band(0)[0] = 99.0
    source = np.ones(8)
    csr = CSROperator.from_coo([0], [0], [1.0], 8)
    with pytest.raises(ValueError):
        csr._data[0] = 2.0
    del source


def test_exact_eigenvalue_bounds():
    # closed-form tridiagonal Toeplitz
    banded = BandedOperator.toeplitz(17, {0: 2.0, 1: -1.0, -1: -1.0})
    lam = np.linalg.eigvalsh(banded.to_dense())
    np.testing.assert_allclose(banded.eigenvalue_bounds(), (lam[0], lam[-1]),
                               rtol=1e-13)
    # Kronecker sum of symmetric terms, with scale
    kron = _poisson_operator(6)
    lam_k = np.linalg.eigvalsh(kron.to_dense())
    np.testing.assert_allclose(kron.eigenvalue_bounds(), (lam_k[0], lam_k[-1]),
                               rtol=1e-12)
    assert condition_number(kron) == pytest.approx(lam_k[-1] / lam_k[0])
    # affine shift maps the bounds (and flips under negative scale)
    shifted = DiagonalShiftOperator(kron, shift=5.0, scale=-2.0)
    lam_s = np.linalg.eigvalsh(shifted.to_dense())
    np.testing.assert_allclose(shifted.eigenvalue_bounds(),
                               (lam_s[0], lam_s[-1]), rtol=1e-12)
    # indefinite spectra expose no endpoint condition bound
    sigma = 0.5 * (lam[0] + lam[1])
    helm = BandedOperator.toeplitz(17, {0: 2.0 - sigma, 1: -1.0, -1: -1.0})
    assert helm.eigenvalue_bounds()[0] < 0 < helm.eigenvalue_bounds()[1]
    assert helm.condition_bound() is None


def test_structured_classical_solves_are_exact():
    rng = np.random.default_rng(1)
    # banded (scipy banded LU / Thomas)
    banded = BandedOperator.toeplitz(40, {0: 2.0, 1: -1.0, -1: -1.0})
    b = rng.standard_normal(40)
    np.testing.assert_allclose(banded.solve(b),
                               np.linalg.solve(banded.to_dense(), b),
                               atol=1e-10)
    # Kronecker fast diagonalisation, vector and block
    kron = _poisson_operator(5)
    block = rng.standard_normal((25, 3))
    np.testing.assert_allclose(kron.solve(block),
                               np.linalg.solve(kron.to_dense(), block),
                               atol=1e-10)
    # shifted Kronecker goes through the same eigenbasis
    shifted = DiagonalShiftOperator(kron, shift=1.5, scale=0.25)
    np.testing.assert_allclose(shifted.solve(block),
                               np.linalg.solve(shifted.to_dense(), block),
                               atol=1e-10)
    # symmetric definite CSR solves by conjugate gradients
    lap = CSROperator.from_dense(np.diag([2.0] * 10)
                                 - np.diag(np.ones(9), 1)
                                 - np.diag(np.ones(9), -1))
    ridge = DiagonalShiftOperator(
        CSROperator(lap._data, lap._indices, lap._indptr, 10,
                    spectrum_bounds=(float(np.linalg.eigvalsh(lap.to_dense())[0]),
                                     float(np.linalg.eigvalsh(lap.to_dense())[-1]))),
        shift=0.3)
    b10 = rng.standard_normal(10)
    np.testing.assert_allclose(ridge.solve(b10),
                               np.linalg.solve(ridge.to_dense(), b10),
                               atol=1e-9)


def test_dense_materialisation_wall():
    big = BandedOperator.toeplitz(9000, {0: 2.0, 1: -1.0, -1: -1.0})
    with pytest.raises(MemoryError, match="refusing to densify"):
        big.to_dense()
    # the structured path still works fine at that size
    x = np.ones(9000)
    assert np.isfinite(big @ x).all()
    assert big.solve(x).shape == (9000,)


# ---------------------------------------------------------------------- #
# fingerprints
# ---------------------------------------------------------------------- #
def test_fingerprints_distinguish_structures_and_stay_stable():
    dense = tridiagonal_toeplitz(12, 2.0, -1.0)
    banded = BandedOperator.from_dense(dense)
    csr = CSROperator.from_dense(dense)
    prints = {matrix_fingerprint(dense), matrix_fingerprint(banded),
              matrix_fingerprint(csr)}
    assert len(prints) == 3  # same numbers, three distinct compiled problems
    # rebuilding the same structure reproduces the same fingerprint
    assert matrix_fingerprint(BandedOperator.from_dense(dense)) == \
        matrix_fingerprint(banded)
    assert matrix_fingerprint(CSROperator.from_dense(dense)) == \
        matrix_fingerprint(csr)
    # different scalar parameters change the hash even with equal arrays
    kron = KroneckerSumOperator([dense], scale=1.0)
    kron2 = KroneckerSumOperator([dense], scale=2.0)
    assert matrix_fingerprint(kron) != matrix_fingerprint(kron2)
    # declared spectrum bounds are part of the compiled identity
    with_bounds = CSROperator(csr._data, csr._indices, csr._indptr, 12,
                              spectrum_bounds=(0.1, 4.0))
    assert matrix_fingerprint(with_bounds) != matrix_fingerprint(csr)


def test_fingerprint_canonicalisation_covers_operator_components():
    values = np.array([2.0, -0.0, 2.0, 2.0])
    canonical = np.array([2.0, 0.0, 2.0, 2.0])
    a = BandedOperator(4, {0: values})
    b = BandedOperator(4, {0: canonical})
    # -0.0 in a component array canonicalises exactly like dense hashing
    assert matrix_fingerprint(a) == matrix_fingerprint(b)


# ---------------------------------------------------------------------- #
# matrix-free solve route
# ---------------------------------------------------------------------- #
def test_matrix_free_matches_dense_route_to_1e12():
    operator = _poisson_operator(7)       # N = 49, kappa ~ 26
    dense = operator.to_dense()
    kappa = float(np.linalg.cond(dense))
    rng = np.random.default_rng(2)
    b = rng.standard_normal(49)

    free = QSVTLinearSolver(operator, epsilon_l=1e-2, backend="ideal",
                            kappa=kappa)
    ref = QSVTLinearSolver(dense, epsilon_l=1e-2, backend="ideal", kappa=kappa)
    assert free.describe()["matrix_free"] is True
    assert ref.describe()["matrix_free"] is False
    # single solve: identical polynomial, identical transformation
    np.testing.assert_allclose(free.solve(b).x, ref.solve(b).x, atol=1e-12)
    # full refinement to 1e-12, batched included
    batch = rng.standard_normal((3, 49))
    results_free = MixedPrecisionRefinement(
        free, target_accuracy=1e-12).solve_batch(batch)
    results_ref = MixedPrecisionRefinement(
        ref, target_accuracy=1e-12).solve_batch(batch)
    for rf, rr in zip(results_free, results_ref):
        assert rf.converged and rr.converged
        np.testing.assert_allclose(rf.x, rr.x, atol=1e-12)


def test_matrix_free_auto_backend_and_indefinite_guard():
    operator = _poisson_operator(5)
    solver = QSVTLinearSolver(operator, epsilon_l=1e-2)   # backend="auto"
    assert solver.describe()["backend"] == "ideal-polynomial"
    assert solver.describe()["matrix_free"] is True
    assert solver.kappa == pytest.approx(condition_number(operator))
    # indefinite operators no longer need a pinned kappa: the matrix-free
    # route estimates min |λ| from reorthogonalised Lanczos Ritz values,
    # safety-widened so the derived κ over-estimates the true one
    lam = np.linalg.eigvalsh(tridiagonal_toeplitz(8, 2.0, -1.0))
    sigma = 0.5 * (lam[0] + lam[1])
    helm = BandedOperator.toeplitz(8, {0: 2.0 - sigma, 1: -1.0, -1: -1.0})
    from repro.core.backends import IdealPolynomialBackend

    backend = IdealPolynomialBackend()
    backend.prepare(helm, epsilon_l=1e-2, kappa=None)
    gaps = np.abs(lam - sigma)
    true_kappa = float(gaps.max() / gaps.min())
    assert backend.kappa_effective >= true_kappa


def test_matrix_free_helmholtz_with_pinned_kappa():
    lam = np.linalg.eigvalsh(tridiagonal_toeplitz(8, 2.0, -1.0))
    sigma = 0.5 * (lam[0] + lam[1])
    helm = BandedOperator.toeplitz(8, {0: 2.0 - sigma, 1: -1.0, -1: -1.0})
    gaps = np.abs(lam - sigma)
    kappa = float(gaps.max() / gaps.min())
    solver = QSVTLinearSolver(helm, epsilon_l=1e-3, backend="ideal",
                              kappa=kappa)
    b = np.sin(np.pi * np.arange(1, 9) / 9.0)
    result = MixedPrecisionRefinement(solver, target_accuracy=1e-10).solve(b)
    assert result.converged
    exact = np.linalg.solve(helm.to_dense(), b)
    np.testing.assert_allclose(result.x, exact, atol=1e-9)


# ---------------------------------------------------------------------- #
# engine integration
# ---------------------------------------------------------------------- #
def test_cache_charges_structured_bytes_not_dense():
    operator = _poisson_operator(8)       # N = 64
    cache = CompiledSolverCache()
    solver = cache.solver(operator, epsilon_l=1e-2, backend="exact")
    again = cache.solver(operator, epsilon_l=1e-2, backend="exact")
    assert solver is again and cache.stats()["compiles"] == 1
    dense_bytes = 64 * 64 * 8
    assert cache.stats()["total_bytes"] < dense_bytes / 4
    assert solver.payload_bytes() == payload_nbytes(operator)


def test_sharedmem_round_trips_structured_operators():
    operator = _poisson_operator(6)
    with SharedMatrixRegistry() as registry:
        handle = registry.publish(operator)
        assert registry.publish(operator).segment == handle.segment
        assert handle.nbytes < operator.shape[0] ** 2 * 8 / 4
        assert handle.fingerprint == matrix_fingerprint(operator)
        attached = attach_matrix(handle)
        assert is_structured_operator(attached)
        x = np.random.default_rng(3).standard_normal(36)
        np.testing.assert_allclose(attached @ x, operator @ x, atol=1e-13)
        assert matrix_fingerprint(attached) == handle.fingerprint
        detach_all()


def test_structured_scenarios_run_end_to_end():
    scenario = build_scenario("poisson-2d", grid_points=6, backend="ideal")
    assert is_structured_operator(scenario.jobs[0].matrix)
    report = ScenarioRunner(mode="serial").run(scenario.jobs)
    assert all(result.ok and result.converged for result in report)
    # dense assembly at overlapping sizes gives the same solutions to 1e-12
    dense_jobs = build_scenario("poisson-2d", grid_points=6, backend="ideal",
                                assembly="dense").jobs
    dense_report = ScenarioRunner(mode="serial").run(dense_jobs)
    for structured, dense in zip(report, dense_report):
        np.testing.assert_allclose(structured.x, dense.x, atol=1e-12)


def test_process_mode_ships_structured_segments():
    """Workers attach zero-copy operators; the segment holds O(nnz) bytes."""
    scenario = build_scenario("poisson-2d", grid_points=6, num_rhs=4,
                              backend="ideal")
    with ScenarioRunner(mode="process", max_workers=2) as runner:
        report = runner.run(scenario.jobs)
    assert all(result.ok and result.converged for result in report)
    shm = report.summary["shared_memory"]
    assert shm["copies"] == 1                     # one segment for all jobs
    assert shm["segment_bytes"] < 36 * 36 * 8     # structured, not dense


def test_dense_assembly_refuses_beyond_wall():
    with pytest.raises(ValueError, match="dense wall"):
        build_scenario("poisson-2d", grid_points=128, assembly="dense")
    # the structured default sails through the same size (N = 16384)
    scenario = build_scenario("poisson-2d", grid_points=128, backend="exact")
    assert scenario.jobs[0].matrix.shape == (16384, 16384)


def test_large_structured_poisson_solves_via_exact_backend():
    """N = 16384 end-to-end in-process: assembly, cache, refinement."""
    scenario = build_scenario("poisson-2d", grid_points=128, backend="exact",
                              target_accuracy=1e-8)
    report = ScenarioRunner(mode="serial").run(scenario.jobs)
    assert all(result.ok and result.converged for result in report)
    assert report.summary["cache"]["compiles"] == 1


# ---------------------------------------------------------------------- #
# generic registry (satellite)
# ---------------------------------------------------------------------- #
def test_generic_registry_behaviour():
    registry = Registry("widget")
    registry.register("a", 1)
    with pytest.raises(ValueError, match="already registered"):
        registry.register("a", 2)
    registry.register("a", 2, overwrite=True)
    assert registry["a"] == 2

    @registry.register("b")
    def builder():
        return 42

    assert registry["b"] is builder
    assert registry.names() == ["a", "b"]
    assert "a" in registry and len(registry) == 2
    with pytest.raises(KeyError, match="did you mean 'a'"):
        registry["aa"]
    assert registry.unregister("a") and not registry.unregister("a")
    assert dict(registry) == {"b": builder}


def test_pickled_csr_operator_never_ships_its_scipy_wrapper():
    import pickle

    rng = np.random.default_rng(5)
    dense = np.where(rng.random((40, 40)) < 0.1,
                     rng.standard_normal((40, 40)), 0.0)
    operator = CSROperator.from_dense(dense)
    cold = pickle.dumps(operator)
    block = rng.standard_normal((40, 3))
    product = operator.matmat(block)
    adjoint = operator.rmatmat(block)
    assert operator._sparse_cache is not None     # the wrapper is cached
    warm = pickle.dumps(operator)
    assert len(warm) <= len(cold)
    restored = pickle.loads(warm)
    assert restored._sparse_cache is None
    assert np.array_equal(restored.matmat(block), product)
    assert np.array_equal(restored.rmatmat(block), adjoint)
    # the transport state is the three canonical arrays, nothing derived
    _, arrays = operator.to_state()
    assert len(arrays) == 3


def test_banded_constants_found_once_cover_mixed_bands():
    rng = np.random.default_rng(6)
    bands = {0: np.full(9, 3.0), 1: rng.standard_normal(8), -2: np.full(7, -0.5)}
    operator = BandedOperator(9, bands)
    assert operator.toeplitz_stencil() is None
    dense = operator.to_dense()
    block = rng.standard_normal((9, 4))
    np.testing.assert_allclose(operator.matmat(block), dense @ block, atol=1e-13)
    np.testing.assert_allclose(operator.rmatvec(block[:, 0]),
                               dense.T @ block[:, 0], atol=1e-13)
    toeplitz = BandedOperator.toeplitz(9, {0: 3.0, 1: -1.0, -1: -1.0})
    assert toeplitz.toeplitz_stencil() == {-1: -1.0, 0: 3.0, 1: -1.0}
