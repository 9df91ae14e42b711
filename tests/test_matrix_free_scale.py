"""PR 7 oracle tests: the total matrix-free path.

Property-style checks for the pieces that make the matrix-free route total:
the vectorised wide-batch kernels against dense ``@`` and the old loop, the
banded plan-op circuit route against the dense-circuit reference, the
Golub–Kahan / LSQR route for non-symmetric operators, Lanczos spectrum
estimates against ``eigvalsh``, the unified dense wall, operator-state
payload persistence across processes, and the convection–diffusion /
Helmholtz families end-to-end without analytic κ.
"""

import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.backends import CircuitQSVTBackend, IdealPolynomialBackend
from repro.core.cost_model import measured_kappa, predicted_kappa, resolved_kappa
from repro.core.qsvt_solver import QSVTLinearSolver
from repro.core.refinement import MixedPrecisionRefinement
from repro.linalg import BandedOperator, CSROperator
from repro.linalg.cond import (
    estimate_operator_condition,
    lanczos_eigenvalue_estimates,
    lanczos_spectrum_estimate,
)
from repro.linalg.iterative import lsqr
from repro.problems import ConvectionDiffusionFamily, HelmholtzFamily
from repro.problems.base import check_dense_assembly

#: the checkout this test file lives in (its ``src/`` is what a child
#: interpreter must import).
_REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _random_sparse_dense(gen, n, density=0.08):
    dense = np.where(gen.random((n, n)) < density,
                     gen.standard_normal((n, n)), 0.0)
    dense[n // 3] = 0.0  # keep an empty row in play
    return dense


def _diag_dominant_nonsym(gen, n):
    dense = _random_sparse_dense(gen, n, density=0.15)
    dense[np.arange(n), np.arange(n)] = n / 4.0 + gen.random(n)
    return dense


class TestBatchKernels:
    def test_csr_matmat_matches_dense_and_loop(self):
        gen = np.random.default_rng(7)
        n, batch = 57, 9
        dense = _random_sparse_dense(gen, n)
        op = CSROperator.from_dense(dense)
        block = gen.standard_normal((n, batch))
        expected = dense @ block
        np.testing.assert_allclose(op.matmat(block), expected, atol=1e-12)
        np.testing.assert_allclose(op._matmat_loop(block), expected, atol=1e-12)
        np.testing.assert_allclose(op.rmatmat(block), dense.T @ block,
                                   atol=1e-12)

    def test_banded_matmat_matches_dense(self):
        gen = np.random.default_rng(11)
        n, batch = 40, 6
        dense = np.zeros((n, n))
        for offset in (-2, 0, 3):
            idx = np.arange(n - abs(offset))
            rows = idx if offset >= 0 else idx - offset
            cols = idx + offset if offset >= 0 else idx
            dense[rows, cols] = gen.standard_normal(n - abs(offset))
        op = BandedOperator.from_dense(dense)
        block = gen.standard_normal((n, batch))
        np.testing.assert_allclose(op.matmat(block), dense @ block, atol=1e-12)
        np.testing.assert_allclose(op.rmatmat(block), dense.T @ block,
                                   atol=1e-12)

    def test_csr_matvec_float32_round_trip(self):
        # the dtype contract: any real input promotes to float64 exactly once
        gen = np.random.default_rng(3)
        dense = _random_sparse_dense(gen, 33)
        op = CSROperator.from_dense(dense)
        x64 = gen.standard_normal(33)
        x32 = x64.astype(np.float32)
        y = op.matvec(x32)
        assert y.dtype == np.float64
        np.testing.assert_allclose(y, op.matvec(x32.astype(np.float64)),
                                   atol=1e-14)
        np.testing.assert_allclose(y, op.matvec(x64), atol=1e-5)


class TestClenshawColumnBlocks:
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_blocked_matches_unblocked(self, monkeypatch, symmetric):
        from repro.core import backends

        gen = np.random.default_rng(8)
        n, batch = 48, 5
        if symmetric:
            operator = BandedOperator.toeplitz(n, {0: 4.0, 1: -1.0, -1: -1.0})
        else:
            operator = CSROperator.from_dense(_diag_dominant_nonsym(gen, n))
        backend = IdealPolynomialBackend()
        backend.prepare(operator, epsilon_l=1e-2)
        assert backend._dilated is not symmetric
        normalized = gen.standard_normal((n, batch))
        normalized /= np.linalg.norm(normalized, axis=0)
        calls = []
        matmat = operator.matmat
        monkeypatch.setattr(operator, "matmat",
                            lambda w: calls.append(w.shape[1]) or matmat(w))
        rows = n if symmetric else 2 * n
        # a budget below N x B forces blocks of 2, 2 and 1 columns
        monkeypatch.setattr(backends, "CLENSHAW_BLOCK_BYTES", 2 * rows * 8)
        blocked = backend._transform_matrix_free(normalized)
        assert sorted(set(calls)) == [1, 2]
        terms = len(calls) // 3
        calls.clear()
        monkeypatch.setattr(backends, "CLENSHAW_BLOCK_BYTES", 1 << 40)
        whole = backend._transform_matrix_free(normalized)
        assert calls == [batch] * terms
        np.testing.assert_allclose(blocked, whole, atol=1e-12)


class TestBandedPlanCircuitRoute:
    def test_plan_program_matches_dense_qsvt_circuit(self):
        # same unitary, same phases: the plan-op program must reproduce the
        # dense gate-level QSVT to coherence precision.  The dense reference
        # wraps the plan encoding's explicitly assembled unitary (small N
        # oracle hatch) as a one-gate BlockEncoding.
        from repro.blockencoding.banded import (BandedPlanBlockEncoding,
                                                compile_banded_qsvt_program)
        from repro.blockencoding.base import BlockEncoding
        from repro.qsp import solve_qsp_phases
        from repro.qsp.chebyshev import evaluate_chebyshev
        from repro.qsp.qsvt_circuit import compile_qsvt_program
        from repro.quantum import QuantumCircuit

        class DenseReference(BlockEncoding):
            def __init__(self, plan_encoding):
                self._unitary = plan_encoding.unitary()
                n = plan_encoding.dimension
                self._init_common(
                    plan_encoding.alpha * self._unitary[:n, :n].real,
                    name="banded-dense-reference")
                self.alpha = plan_encoding.alpha
                self.num_ancillas = plan_encoding.num_ancillas

            def circuit(self):
                qc = QuantumCircuit(self.num_qubits, name="wrap")
                qc.unitary(self._unitary,
                           qubits=list(range(self.num_qubits)), name="BE")
                return qc

            def unitary(self):
                return self._unitary

        coeffs = np.array([0.0, 0.4, 0.0, 0.25, 0.0, 0.2])
        wx = solve_qsp_phases(coeffs).phases
        for bits in (3, 4):
            n = 2 ** bits
            encoding = BandedPlanBlockEncoding(bits, diagonal=2.5,
                                               off_diagonal=-1.0)
            plan_program = compile_banded_qsvt_program(encoding, wx)
            reference = DenseReference(encoding)
            reference.verify(atol=1e-12)
            dense_program = compile_qsvt_program(reference, wx)
            data = np.random.default_rng(bits).standard_normal(n)
            data = data / np.linalg.norm(data)
            got = plan_program.apply(data).vector
            ref = dense_program.apply(data).vector
            assert np.max(np.abs(got - ref)) < 1e-10
            # and both match the polynomial applied through eigenvalues
            dense = BandedOperator.toeplitz(
                n, {0: 2.5, 1: -1.0, -1: -1.0}).to_dense()
            evals, evecs = np.linalg.eigh(dense / encoding.alpha)
            expected = evecs @ (evaluate_chebyshev(coeffs, evals)
                                * (evecs.T @ data))
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_plan_backend_route_agrees_with_dense_route(self):
        # backend level: the auto-selected plan route and the dense LCU route
        # use different subnormalisations, so they agree to the approximation
        # accuracy epsilon_l, and each tracks the exact inverse direction
        n = 16
        op = BandedOperator.toeplitz(n, {0: 2.5, 1: -1.0, -1: -1.0})
        lo, hi = op.eigenvalue_bounds()
        kappa = hi / lo
        plan_backend = CircuitQSVTBackend()
        plan_backend.prepare(op, epsilon_l=1e-6, kappa=kappa)
        assert plan_backend.resolved_block_encoding == "banded-plan"
        dense_backend = CircuitQSVTBackend(block_encoding="tridiagonal")
        dense_backend.prepare(op, epsilon_l=1e-6, kappa=kappa)
        rhs = np.random.default_rng(4).standard_normal(n)
        got = plan_backend.apply_inverse(rhs).direction
        ref = dense_backend.apply_inverse(rhs).direction
        assert np.max(np.abs(got - ref)) < 1e-6
        exact = op.solve(rhs)
        exact = exact / np.linalg.norm(exact)
        assert np.linalg.norm(got - exact) < 1e-6

    def test_plan_route_runs_beyond_the_dense_wall(self, monkeypatch):
        # with the wall lowered below N, any to_dense() call would raise —
        # the banded plan route must synthesise and solve regardless
        monkeypatch.setenv("REPRO_DENSE_WALL", "4096")
        n = 8192
        op = BandedOperator.toeplitz(n, {0: 2.5, 1: -1.0, -1: -1.0})
        with pytest.raises(MemoryError):
            op.to_dense()
        backend = CircuitQSVTBackend()
        backend.prepare(op, epsilon_l=1e-4)
        assert backend.resolved_block_encoding == "banded-plan"
        rhs = np.random.default_rng(0).standard_normal(n)
        direction = backend.apply_inverse(rhs).direction
        exact = op.solve(rhs)
        exact = exact / np.linalg.norm(exact)
        assert np.linalg.norm(direction - exact) < 1e-3

    def test_plan_route_refuses_wrong_shape(self):
        op = BandedOperator.toeplitz(12, {0: 2.5, 1: -1.0, -1: -1.0})  # not 2^k
        backend = CircuitQSVTBackend(block_encoding="banded-plan")
        with pytest.raises(Exception, match="banded-plan"):
            backend.prepare(op, epsilon_l=1e-2)


class TestNonSymmetricRoute:
    def test_lsqr_matches_dense_solve(self):
        gen = np.random.default_rng(5)
        dense = _diag_dominant_nonsym(gen, 40)
        op = CSROperator.from_dense(dense)
        b = gen.standard_normal(40)
        expected = np.linalg.solve(dense, b)
        result = lsqr(op.matvec, op.rmatvec, b, tolerance=1e-13)
        assert result.converged
        np.testing.assert_allclose(result.x, expected, atol=1e-8)

    def test_nonsymmetric_solve_beyond_wall_uses_lsqr(self, monkeypatch):
        gen = np.random.default_rng(9)
        dense = _diag_dominant_nonsym(gen, 48)
        op = CSROperator.from_dense(dense)
        rhs = np.column_stack([gen.standard_normal(48) for _ in range(3)])
        expected = np.linalg.solve(dense, rhs)
        monkeypatch.setenv("REPRO_DENSE_WALL", "16")  # 48 > 16: no densify
        np.testing.assert_allclose(op.solve(rhs), expected, atol=1e-7)
        np.testing.assert_allclose(op.solve(rhs[:, 0]), expected[:, 0],
                                   atol=1e-7)

    def test_gk_condition_estimate_covers_true_kappa(self):
        gen = np.random.default_rng(13)
        dense = _diag_dominant_nonsym(gen, 30)
        op = CSROperator.from_dense(dense)
        true_kappa = np.linalg.cond(dense, 2)
        estimate = estimate_operator_condition(op, rng=0)
        assert estimate >= true_kappa * 0.999
        assert estimate <= true_kappa * 2.0


class TestLanczosSpectrum:
    def test_ritz_values_match_eigvalsh_at_full_steps(self):
        n = 12
        sigma = 0.15
        op = BandedOperator.toeplitz(n, {0: 2.0 - sigma, 1: -1.0, -1: -1.0})
        exact = np.linalg.eigvalsh(op.to_dense())
        ritz = lanczos_eigenvalue_estimates(op.matvec, n, steps=n, rng=0)
        np.testing.assert_allclose(ritz, exact, atol=1e-8)
        lo, hi, interior = lanczos_spectrum_estimate(op.matvec, n, rng=0)
        assert lo <= exact[0] and hi >= exact[-1]
        assert 0.0 < interior <= np.min(np.abs(exact))

    def test_measured_and_resolved_kappa(self):
        op = BandedOperator.toeplitz(16, {0: 2.5, 1: -1.0, -1: -1.0})
        lo, hi = op.eigenvalue_bounds()
        assert measured_kappa(op) == pytest.approx(hi / lo)
        # registry closed forms win; unknown parameters fall back to measure
        assert resolved_kappa("poisson-1d", num_points=16) == pytest.approx(
            predicted_kappa("poisson-1d", num_points=16))
        assert resolved_kappa("graph-laplacian", op,
                              topology="random-regular") == pytest.approx(
            measured_kappa(op))
        with pytest.raises(KeyError):
            resolved_kappa("no-such-model")


class TestUnifiedDenseWall:
    def test_one_env_var_moves_assembly_and_materialisation(self, monkeypatch):
        monkeypatch.setenv("REPRO_DENSE_WALL", "16")
        with pytest.raises(ValueError, match="REPRO_DENSE_WALL"):
            check_dense_assembly(17, "test-family")
        check_dense_assembly(16, "test-family")  # at the wall: allowed
        op = BandedOperator.toeplitz(32, {0: 2.0, 1: -1.0, -1: -1.0})
        with pytest.raises(MemoryError, match="REPRO_DENSE_WALL"):
            op.to_dense()
        monkeypatch.delenv("REPRO_DENSE_WALL")
        assert op.to_dense().shape == (32, 32)


class TestOperatorPayloadPersistence:
    def test_store_round_trip_across_processes(self, tmp_path):
        from repro.engine.cache import CompiledSolverCache
        from repro.engine.store import SynthesisStore

        op = BandedOperator.toeplitz(16, {0: 2.5, 1: -1.0, -1: -1.0})
        store = SynthesisStore(tmp_path)
        cache = CompiledSolverCache(store=store)
        for backend in ("ideal", "circuit"):
            solver = cache.solver(op, epsilon_l=1e-6, backend=backend)
            assert solver.backend.matrix is not None
        assert len(store) == 2

        child = textwrap.dedent("""
            import numpy as np
            from repro.core.refinement import MixedPrecisionRefinement
            from repro.engine.cache import CompiledSolverCache
            from repro.engine.store import SynthesisStore
            from repro.linalg import BandedOperator

            op = BandedOperator.toeplitz(16, {0: 2.5, 1: -1.0, -1: -1.0})
            store = SynthesisStore(%r)
            cache = CompiledSolverCache(store=store)
            rhs = np.random.default_rng(1).standard_normal(16)
            exact = op.solve(rhs)
            for backend in ("ideal", "circuit"):
                solver = cache.solver(op, epsilon_l=1e-6, backend=backend)
                result = MixedPrecisionRefinement(
                    solver, target_accuracy=1e-10).solve(rhs)
                assert result.converged
                assert np.linalg.norm(result.x - exact) < 1e-8, backend
            stats = cache.stats()
            assert stats["compiles"] == 0, stats
            print("RESTORED-WITHOUT-COMPILE")
        """) % str(tmp_path)
        proc = subprocess.run([sys.executable, "-c", child],
                              capture_output=True, text=True, timeout=240,
                              cwd=str(_REPO_ROOT),
                              env={"PYTHONPATH": str(_REPO_ROOT / "src"),
                                   "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr
        assert "RESTORED-WITHOUT-COMPILE" in proc.stdout

    def test_ideal_matrix_free_payload_round_trip_in_process(self):
        gen = np.random.default_rng(2)
        dense = _diag_dominant_nonsym(gen, 24)
        op = CSROperator.from_dense(dense)
        backend = IdealPolynomialBackend()
        backend.prepare(op, epsilon_l=1e-4)
        payload = backend.export_payload()
        restored = IdealPolynomialBackend()
        restored.import_payload(payload)
        rhs = gen.standard_normal(24)
        np.testing.assert_allclose(restored.apply_inverse(rhs).direction,
                                   backend.apply_inverse(rhs).direction,
                                   atol=1e-12)


class TestFamiliesMatrixFree:
    def test_convection_diffusion_solves_matrix_free(self):
        workload = ConvectionDiffusionFamily().workloads(num_points=12,
                                                         peclet=0.8)[0]
        op = workload.matrix
        assert isinstance(op, CSROperator) and not op.is_symmetric
        true_kappa = np.linalg.cond(op.to_dense(), 2)
        assert workload.condition_number >= true_kappa * 0.999
        solver = QSVTLinearSolver(op, epsilon_l=1e-3, backend="ideal",
                                  kappa=workload.condition_number)
        assert solver.backend._dilated
        result = MixedPrecisionRefinement(
            solver, target_accuracy=1e-8).solve(workload.rhs)
        assert result.converged
        assert np.linalg.norm(result.x - workload.solution) < 1e-6

    def test_helmholtz_estimated_kappa_solves_matrix_free(self):
        family = HelmholtzFamily()
        workload = family.workloads(num_points=8,
                                    kappa_source="estimated")[0]
        assert workload.metadata["kappa_source"] == "estimated"
        assert workload.metadata["indefinite"] is True
        analytic = family.analytic_condition_number(num_points=8)
        assert workload.condition_number >= analytic * 0.999
        # no κ pinned anywhere: the solver estimates it from the operator
        solver = QSVTLinearSolver(workload.matrix, epsilon_l=1e-3,
                                  backend="ideal")
        result = MixedPrecisionRefinement(
            solver, target_accuracy=1e-8).solve(workload.rhs)
        assert result.converged
        assert np.linalg.norm(result.x - workload.solution) < 1e-6
