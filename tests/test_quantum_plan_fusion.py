"""Execution-plan IR: fusion correctness, plan caching, fused engine paths.

The correctness oracle of :mod:`repro.quantum.plan` is agreement with the
legacy per-gate loop (``fusion="none"``) to 1e-12, checked here
property-style on random circuits (random targets, controls, control states
and phases) and on real QSVT solve circuits, plus the plan-cache hit
counters, the byte-accounted solver cache and the batched refinement that
ride on the IR.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.applications import random_workload
from repro.blockencoding import build_block_encoding
from repro.blockencoding.banded import (
    BandedPlanBlockEncoding,
    compile_banded_qsvt_program,
)
from repro.core import MixedPrecisionRefinement, QSVTLinearSolver
from repro.core.backends import CircuitQSVTBackend
from repro.engine import CompiledSolverCache
from repro.linalg import random_rhs
from repro.quantum import QuantumCircuit, Statevector, apply_circuit
from repro.quantum.plan import (
    DEFAULT_MAX_FUSED_QUBITS,
    ExecutionPlan,
    PlanOp,
    compile_plan,
    circuit_plan_fingerprint,
    plan_cache,
)
from repro.quantum.statevector import basis_state, circuit_unitary
from repro.qsp import solve_qsp_phases
from repro.qsp.qsvt_circuit import compile_qsvt_program


def _random_circuit(num_qubits: int, num_gates: int, rng) -> QuantumCircuit:
    """Random mix of rotations, entanglers, custom unitaries and multi-controls."""
    qc = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = int(rng.integers(0, 6 if num_qubits >= 3 else 5))
        if kind == 0:
            qc.h(int(rng.integers(num_qubits)))
        elif kind == 1:
            qc.rz(float(rng.normal()), int(rng.integers(num_qubits)))
        elif kind == 2:
            qc.p(float(rng.normal()), int(rng.integers(num_qubits)))
        elif kind == 3:
            a, b = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
            qc.cx(a, b)
        elif kind == 4:
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            unitary, _ = np.linalg.qr(raw)
            a, b = (int(q) for q in rng.choice(num_qubits, 2, replace=False))
            qc.unitary(unitary, (a, b))
        else:
            controls = [int(q) for q in rng.choice(num_qubits, 2, replace=False)]
            target = next(q for q in range(num_qubits) if q not in controls)
            states = [int(s) for s in rng.integers(0, 2, size=2)]
            qc.mcx(controls, target, control_states=states)
    return qc


class TestFusedPlansMatchReference:
    def test_random_circuits_agree_to_1e12(self):
        rng = np.random.default_rng(2025)
        for _ in range(25):
            num_qubits = int(rng.integers(2, 6))
            circuit = _random_circuit(num_qubits, int(rng.integers(1, 30)), rng)
            state = rng.normal(size=2**num_qubits) + 1j * rng.normal(size=2**num_qubits)
            reference = apply_circuit(circuit, Statevector(state.copy()),
                                      fusion="none").data
            for fusion in ("none", "greedy"):
                plan = compile_plan(circuit, fusion=fusion, cache=False)
                assert np.max(np.abs(plan.apply(state) - reference)) < 1e-12

    def test_random_circuits_batched_agree_to_1e12(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            num_qubits = int(rng.integers(2, 6))
            circuit = _random_circuit(num_qubits, int(rng.integers(1, 25)), rng)
            batch = (rng.normal(size=(3, 2**num_qubits))
                     + 1j * rng.normal(size=(3, 2**num_qubits)))
            plan = compile_plan(circuit, cache=False)
            fused = plan.apply_batched(batch)
            for i in range(batch.shape[0]):
                reference = apply_circuit(circuit, Statevector(batch[i].copy()),
                                          fusion="none").data
                assert np.max(np.abs(fused[i] - reference)) < 1e-12

    def test_apply_circuit_default_matches_reference_loop(self, rng):
        circuit = _random_circuit(4, 20, rng)
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        fused = apply_circuit(circuit, Statevector(state.copy()))
        loop = apply_circuit(circuit, Statevector(state.copy()), fusion="none")
        assert np.max(np.abs(fused.data - loop.data)) < 1e-12

    def test_batched_statevector_plan_path(self, rng):
        circuit = _random_circuit(3, 12, rng)
        data = rng.normal(size=(4, 8)) + 1j * rng.normal(size=(4, 8))
        fused = circuit.compile().apply_batched(data)
        unfused = circuit.compile(fusion="none").apply_batched(data)
        assert np.max(np.abs(fused - unfused)) < 1e-12
        for i in range(data.shape[0]):
            reference = apply_circuit(circuit, Statevector(data[i].copy()),
                                      fusion="none").data
            assert np.max(np.abs(fused[i] - reference)) < 1e-12


class TestBatchLastReplay:
    """``apply_batched`` sweeps a ``(2,)*n + (B,)`` tensor and ``apply`` is
    its batch of one.  Where one row and ``B`` rows run the same contraction
    kernel, every row of a batch is the single-state replay bit for bit."""

    PHASES = solve_qsp_phases(np.array([0.0, 0.4, 0.0, 0.25, 0.0, 0.2])).phases

    @staticmethod
    def _replays(plan: ExecutionPlan, batch: int, seed: int):
        rng = np.random.default_rng(seed)
        states = (rng.normal(size=(batch, plan.dimension))
                  + 1j * rng.normal(size=(batch, plan.dimension)))
        original = states.copy()
        rows = plan.apply_batched(states)
        assert rows.shape == states.shape and rows.flags.c_contiguous
        assert np.array_equal(states, original)
        return rows, np.stack([plan.apply(state) for state in states])

    @pytest.mark.parametrize("batch", [1, 3])
    def test_banded_plan_rows_are_single_replays(self, batch):
        encoding = BandedPlanBlockEncoding(4, diagonal=2.5, off_diagonal=-1.0)
        plan = compile_banded_qsvt_program(encoding, self.PHASES).plans[0]
        kinds = {(op.kind, bool(op.controls)) for op in plan.ops}
        assert kinds == {("unitary", False), ("shift", True),
                         ("diagonal", False)}
        rows, singles = self._replays(plan, batch, seed=batch)
        assert np.array_equal(rows, singles)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_every_op_kind_rows_are_single_replays(self, batch):
        # real 4x4 payloads, as in the banded encoding, so one row and a
        # batch round every product the same way
        reflection = np.eye(4) - 0.5 * np.ones((4, 4))
        plan = ExecutionPlan(5, [
            PlanOp(kind="unitary", qubits=(0, 1),
                   matrix=reflection.astype(complex)),
            PlanOp(kind="shift", qubits=(2, 3, 4), shift=1),
            PlanOp(kind="shift", qubits=(2, 3, 4), controls=(0, 1),
                   control_states=(1, 0), shift=-1),
            PlanOp(kind="controlled", qubits=(1, 4),
                   matrix=reflection[::-1].astype(complex),
                   controls=(0, 3), control_states=(1, 0)),
            PlanOp(kind="diagonal", qubits=(0, 2),
                   diagonal=np.exp(1j * np.arange(4.0))),
        ], source_gate_count=5, fusion="none", max_fused_qubits=0)
        rows, singles = self._replays(plan, batch, seed=10 + batch)
        assert np.array_equal(rows, singles)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_fused_dense_program_rows_match_single_replays(self, batch):
        rng = np.random.default_rng(12)
        matrix = rng.normal(size=(8, 8)) + 8.0 * np.eye(8)
        block = build_block_encoding(matrix.T, "dilation")
        plan = compile_qsvt_program(block, self.PHASES).plans[0]
        assert [op.kind for op in plan.ops] == ["unitary"]
        rows, singles = self._replays(plan, batch, seed=20 + batch)
        if batch == 1:
            assert np.array_equal(rows, singles)
        else:
            # one op spans the whole register: one state contracts as a
            # BLAS matrix-vector product, a batch as a matrix-matrix
            # product, and the two kernels round complex sums differently.
            assert np.max(np.abs(rows - singles)) < 1e-13

    def test_circuit_unitary_is_one_batched_replay(self, rng):
        circuit = _random_circuit(3, 10, rng)
        unitary = circuit_unitary(circuit)
        for j in range(8):
            column = apply_circuit(circuit, basis_state(3, j), fusion="none")
            assert np.max(np.abs(unitary[:, j] - column.data)) < 1e-12


class TestInPlaceControlledOps:
    """Controlled ops rewrite their activated slice of the replay tensor in
    place: ``apply_batched`` copies the caller's stack once, so the caller's
    array is never written, and the result equals the replay that copies the
    whole tensor before every controlled op."""

    @staticmethod
    def _plan() -> ExecutionPlan:
        reflection = np.eye(4) - 0.5 * np.ones((4, 4))
        # the *first* op is a controlled shift: it would rewrite the
        # caller's amplitudes if the replay did not own its tensor
        return ExecutionPlan(5, [
            PlanOp(kind="shift", qubits=(2, 3, 4), controls=(0, 1),
                   control_states=(0, 1), shift=1),
            PlanOp(kind="unitary", qubits=(0, 1),
                   matrix=reflection.astype(complex)),
            PlanOp(kind="controlled", qubits=(1, 4),
                   matrix=reflection[::-1].astype(complex),
                   controls=(0, 3), control_states=(1, 0)),
            PlanOp(kind="shift", qubits=(2, 3, 4), controls=(0, 1),
                   control_states=(1, 0), shift=-1),
            PlanOp(kind="diagonal", qubits=(0, 2),
                   diagonal=np.exp(1j * np.arange(4.0))),
        ], source_gate_count=5, fusion="none", max_fused_qubits=0)

    @staticmethod
    def _copying_replay(plan: ExecutionPlan, states: np.ndarray) -> np.ndarray:
        batch = states.shape[0]
        tensor = np.array(states, dtype=complex).T.reshape(
            (2,) * plan.num_qubits + (batch,))
        for op in plan.ops:
            tensor = op.apply(tensor.copy() if op.controls else tensor)
        return tensor.reshape(plan.dimension, batch).T

    @pytest.mark.parametrize("batch", [1, 3])
    def test_caller_array_unchanged(self, batch):
        plan = self._plan()
        rng = np.random.default_rng(30 + batch)
        states = (rng.normal(size=(batch, plan.dimension))
                  + 1j * rng.normal(size=(batch, plan.dimension)))
        original = states.copy()
        rows = plan.apply_batched(states)
        assert np.array_equal(states, original)
        assert np.array_equal(rows, self._copying_replay(plan, original))
        single = plan.apply(states[0])
        assert np.array_equal(states, original)
        assert np.array_equal(single, self._copying_replay(plan, original[:1])[0])

    @pytest.mark.parametrize("batch", [1, 4])
    def test_banded_program_matches_copying_replay(self, batch):
        encoding = BandedPlanBlockEncoding(8, diagonal=4.0, off_diagonal=-1.0)
        plan = compile_banded_qsvt_program(
            encoding, TestBatchLastReplay.PHASES).plans[0]
        rng = np.random.default_rng(40 + batch)
        states = np.zeros((batch, plan.dimension), dtype=complex)
        states[:, : encoding.dimension] = rng.normal(
            size=(batch, encoding.dimension))
        assert np.array_equal(plan.apply_batched(states),
                              self._copying_replay(plan, states))

    def test_two_threads_replaying_one_plan_agree(self):
        import threading

        encoding = BandedPlanBlockEncoding(10, diagonal=4.0, off_diagonal=-1.0)
        plan = compile_banded_qsvt_program(
            encoding, TestBatchLastReplay.PHASES).plans[0]
        rng = np.random.default_rng(50)
        states = [rng.normal(size=(3, plan.dimension)).astype(complex)
                  for _ in range(2)]
        expected = [plan.apply_batched(block) for block in states]
        results: dict[int, list] = {0: [], 1: []}
        barrier = threading.Barrier(2)

        def replay(worker: int) -> None:
            barrier.wait(timeout=30)
            for _ in range(4):
                results[worker].append(plan.apply_batched(states[worker]))

        threads = [threading.Thread(target=replay, args=(w,)) for w in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        for worker in (0, 1):
            assert len(results[worker]) == 4
            for rows in results[worker]:
                assert np.array_equal(rows, expected[worker])


class TestFusionPass:
    def test_none_lowers_one_op_per_gate(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rz(0.3, 2).mcx([0, 1], 2)
        plan = qc.compile(fusion="none", cache=False)
        assert plan.num_contractions == len(qc) == 4
        assert plan.fusion == "none"

    def test_greedy_fuses_overlapping_gates(self):
        qc = QuantumCircuit(3)
        qc.h(0).rz(0.2, 0).cx(0, 1).h(2).cx(1, 2)
        plan = qc.compile(fusion="greedy", cache=False)
        assert plan.num_contractions < len(qc)
        assert plan.source_gate_count == len(qc)
        assert plan.stats()["fusion_ratio"] > 1.0

    def test_nested_sets_fuse_beyond_width_cap(self, rng):
        # a 5-qubit dense layer followed by a 1-qubit diagonal on a subset
        # must fuse even though 5 > max_fused_qubits: the union never grows.
        raw = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        unitary, _ = np.linalg.qr(raw)
        qc = QuantumCircuit(5)
        qc.unitary(unitary, range(5), name="BE")
        qc.rz(0.7, 0)
        qc.unitary(unitary.conj().T, range(5), name="BE†")
        plan = qc.compile(fusion="greedy", max_fused_qubits=2, cache=False)
        assert plan.num_contractions == 1
        state = rng.normal(size=32) + 1j * rng.normal(size=32)
        reference = apply_circuit(qc, Statevector(state.copy()), fusion="none")
        assert np.max(np.abs(plan.apply(state) - reference.data)) < 1e-12

    def test_diagonal_fast_path(self):
        qc = QuantumCircuit(3)
        qc.rz(0.4, 0).p(0.9, 2).z(1)
        plan = qc.compile(fusion="greedy", cache=False)
        assert plan.num_contractions == 1
        assert plan.ops[0].kind == "diagonal"
        state = np.arange(8, dtype=complex) + 1.0
        reference = apply_circuit(qc, Statevector(state.copy()), fusion="none")
        assert np.max(np.abs(plan.apply(state) - reference.data)) < 1e-12

    def test_wide_controlled_gate_stays_sliced(self):
        qc = QuantumCircuit(6)
        qc.h(5)
        qc.mcx([0, 1, 2, 3, 4], 5, control_states=[1, 0, 1, 0, 1])
        plan = qc.compile(fusion="greedy", max_fused_qubits=3, cache=False)
        kinds = [op.kind for op in plan.ops]
        assert "controlled" in kinds
        state = np.zeros(64, dtype=complex)
        state[0b10101_0] = 1.0   # control pattern satisfied
        reference = apply_circuit(qc, Statevector(state.copy()), fusion="none")
        assert np.max(np.abs(plan.apply(state) - reference.data)) < 1e-12

    def test_invalid_fusion_mode_rejected(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        with pytest.raises(ValueError):
            qc.compile(fusion="eager")
        with pytest.raises(ValueError):
            qc.compile(max_fused_qubits=0)


class TestPlanCache:
    def test_identical_circuits_hit(self):
        cache = plan_cache()
        qc1 = QuantumCircuit(3)
        qc1.h(0).cx(0, 1).rz(0.25, 2)
        qc2 = QuantumCircuit(3)
        qc2.h(0).cx(0, 1).rz(0.25, 2)
        assert circuit_plan_fingerprint(qc1) == circuit_plan_fingerprint(qc2)
        hits_before = cache.hits
        first = qc1.compile()
        second = qc2.compile()    # rebuilt but byte-identical -> cache hit
        assert second is first
        assert cache.hits == hits_before + 1

    def test_different_parameters_miss(self):
        qc1 = QuantumCircuit(2)
        qc1.rz(0.25, 0)
        qc2 = QuantumCircuit(2)
        qc2.rz(0.35, 0)
        assert circuit_plan_fingerprint(qc1) != circuit_plan_fingerprint(qc2)
        assert qc1.compile() is not qc2.compile()

    def test_stats_and_clear(self):
        cache = plan_cache()
        qc = QuantumCircuit(2)
        qc.h(0).h(1)
        qc.compile()
        stats = cache.stats()
        assert stats["size"] >= 1 and stats["hits"] + stats["misses"] > 0
        cache.clear()
        assert len(cache) == 0

    def test_byte_budget_bounds_plan_memory(self):
        from repro.quantum.plan import PlanCache

        cache = PlanCache(maxsize=8, max_bytes=1)
        plans = []
        for theta in (0.1, 0.2, 0.3):
            qc = QuantumCircuit(2)
            qc.rz(theta, 0)
            plan = compile_plan(qc, cache=False)
            cache.put((circuit_plan_fingerprint(qc), "greedy", 4), plan)
            plans.append(plan)
        stats = cache.stats()
        # over budget: only the most recent plan survives
        assert stats["size"] == 1 and stats["evictions"] == 2
        assert stats["total_bytes"] == plans[-1].payload_bytes()

    def test_qsvt_recompile_hits_plan_cache(self, prepared_circuit_solver):
        backend = prepared_circuit_solver.backend
        # first compile (re)materialises the plans in the LRU, the second —
        # byte-identical circuits rebuilt from scratch — must hit.
        compile_qsvt_program(backend.block, backend.phases)
        hits_before = plan_cache().hits
        program = compile_qsvt_program(backend.block, backend.phases)
        # one hit per compiled plan (num_runs counts modeled runs, and a real
        # encoding's -θ run is conjugate-derived, not compiled)
        assert plan_cache().hits >= hits_before + len(program.plans)


class TestFusedQSVTSolve:
    def test_fused_matches_unfused_on_solve_circuit(self, medium_workload):
        fused = CircuitQSVTBackend()
        fused.prepare(medium_workload.matrix, epsilon_l=1e-2)
        unfused = CircuitQSVTBackend(fusion="none")
        unfused.prepare(medium_workload.matrix, epsilon_l=1e-2)
        rhs = np.stack([random_rhs(16, rng=i) for i in range(4)])
        single_dev = np.max(np.abs(
            fused.apply_inverse(rhs[0]).direction
            - unfused.apply_inverse(rhs[0]).direction))
        assert single_dev < 1e-12
        for a, b in zip(fused.apply_inverse_batch(rhs),
                        unfused.apply_inverse_batch(rhs)):
            assert np.max(np.abs(a.direction - b.direction)) < 1e-12

    def test_backend_reports_contraction_reduction(self, prepared_circuit_solver):
        info = prepared_circuit_solver.describe()
        assert info["fusion"] == "greedy"
        assert info["gates_per_sweep"] / info["contractions_per_sweep"] >= 1.5

    def test_program_compiled_once_and_replayed(self, medium_workload):
        backend = CircuitQSVTBackend()
        backend.prepare(medium_workload.matrix, epsilon_l=1e-2)
        program = backend.program
        backend.apply_inverse(medium_workload.rhs)
        backend.apply_inverse_batch(np.stack([medium_workload.rhs] * 2))
        assert backend.program is program
        assert program.payload_bytes() > 0

    def test_plan_isolated_from_gate_list(self, rng):
        # the compiled plan must be a snapshot: appending gates afterwards
        # does not change an already-compiled plan.
        qc = QuantumCircuit(2)
        qc.h(0)
        plan = qc.compile(cache=False)
        before = plan.apply(np.array([1, 0, 0, 0], dtype=complex))
        qc.x(1)
        after = plan.apply(np.array([1, 0, 0, 0], dtype=complex))
        assert np.array_equal(before, after)
        assert isinstance(plan, ExecutionPlan)
        assert plan.max_fused_qubits == DEFAULT_MAX_FUSED_QUBITS


class TestByteAccountedCache:
    def test_totals_exposed_in_stats(self, medium_workload):
        cache = CompiledSolverCache()
        solver = cache.solver(medium_workload.matrix, epsilon_l=1e-2,
                              backend="circuit")
        stats = cache.stats()
        assert stats["total_bytes"] == solver.payload_bytes() > 0
        assert stats["max_bytes"] is None

    def test_max_bytes_evicts_lru_not_most_recent(self, medium_workload):
        cache = CompiledSolverCache(max_bytes=1)
        first = cache.solver(medium_workload.matrix, epsilon_l=1e-2,
                             backend="exact")
        other = random_workload(16, 5.0, rng=99)
        second = cache.solver(other.matrix, epsilon_l=1e-2, backend="exact")
        stats = cache.stats()
        # over budget: the older entry is evicted, the newest always survives
        assert stats["size"] == 1 and stats["evictions"] == 1
        assert cache.solver(other.matrix, epsilon_l=1e-2, backend="exact") is second
        assert cache.solver(medium_workload.matrix, epsilon_l=1e-2,
                            backend="exact") is not first

    def test_budget_keeps_entries_that_fit(self, medium_workload):
        probe = CompiledSolverCache()
        solver = probe.solver(medium_workload.matrix, epsilon_l=1e-2,
                              backend="exact")
        budget = 3 * solver.payload_bytes()
        cache = CompiledSolverCache(max_bytes=budget)
        for epsilon in (1e-1, 5e-2, 1e-2):
            cache.solver(medium_workload.matrix, epsilon_l=epsilon,
                         backend="exact")
        stats = cache.stats()
        assert stats["size"] == 3 and stats["evictions"] == 0
        assert stats["total_bytes"] <= budget

    def test_invalidate_releases_bytes(self, medium_workload):
        cache = CompiledSolverCache()
        cache.solver(medium_workload.matrix, epsilon_l=1e-2, backend="exact")
        assert cache.total_bytes > 0
        assert cache.invalidate(medium_workload.matrix) == 1
        assert cache.total_bytes == 0


#: every inner-solver route the batch-of-one oracle covers (see the
#: ``make_inner_solver`` fixture).
REFINEMENT_ROUTES = ("circuit-dense", "circuit-banded-plan", "ideal-dense",
                     "ideal-matrix-free", "ideal-dilated-matrix-free",
                     "exact-rng", "classical-lu")


def _assert_same_refinement(a, b, route: str) -> None:
    """Two refinements of one system took the same path: bit for bit on the
    dense and circuit routes, to 1e-12 on the matrix-free (Clenshaw over
    ``matmat``) routes, and always with identical iteration counts,
    block-encoding calls and communication events."""
    if "matrix-free" in route:
        np.testing.assert_allclose(a.x, b.x, atol=1e-12, rtol=0, err_msg=route)
        np.testing.assert_allclose(a.scaled_residuals, b.scaled_residuals,
                                   atol=1e-12, rtol=0, err_msg=route)
    else:
        assert np.array_equal(a.x, b.x), route
        assert np.array_equal(a.scaled_residuals, b.scaled_residuals), route
    assert a.iterations == b.iterations, route
    assert ([it.cumulative_block_encoding_calls for it in a.history]
            == [it.cumulative_block_encoding_calls for it in b.history]), route
    assert a.communication.events == b.communication.events, route


class TestBatchedRefinement:
    def test_solve_batch_matches_sequential(self, make_inner_solver):
        for route in REFINEMENT_ROUTES:
            driver = MixedPrecisionRefinement(make_inner_solver(route),
                                              target_accuracy=1e-10)
            rng = np.random.default_rng(5)
            batch = rng.standard_normal((3, driver.matrix.shape[0]))
            # solve(b) is solve_batch(b[None])[0]; the twin is a fresh
            # synthesis, so the seeded surrogate replays the same noise
            twin = MixedPrecisionRefinement(make_inner_solver(route),
                                            target_accuracy=1e-10)
            _assert_same_refinement(driver.solve(batch[0]),
                                    twin.solve_batch(batch[:1])[0], route)
            if route == "exact-rng":
                continue  # B systems draw the surrogate noise in another order
            batched = driver.solve_batch(batch)
            for i, result in enumerate(batched):
                sequential = driver.solve(batch[i])
                assert result.converged and sequential.converged, route
                assert result.iterations == sequential.iterations, route
                assert np.max(np.abs(result.x - sequential.x)) < 1e-9, route
                assert (result.total_block_encoding_calls
                        == sequential.total_block_encoding_calls), route

    @pytest.mark.parametrize("backend", ["circuit", "ideal"])
    def test_empty_batch_is_rejected(self, medium_workload, backend):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-2,
                                  backend=backend)
        empty = np.empty((0, 16))
        for solve_batch in (solver.solve_batch,
                            MixedPrecisionRefinement(solver).solve_batch):
            with pytest.raises(ValueError,
                               match="at least one right-hand side"):
                solve_batch(empty)

    def test_solve_batch_histories_and_forward_errors(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-2,
                                  backend="circuit")
        driver = MixedPrecisionRefinement(solver, target_accuracy=1e-8)
        rng = np.random.default_rng(6)
        batch = rng.standard_normal((2, 16))
        x_true = np.linalg.solve(medium_workload.matrix, batch.T).T
        results = driver.solve_batch(batch, x_true=x_true)
        for result in results:
            assert result.converged
            residuals = [it.scaled_residual for it in result.history]
            assert residuals[-1] <= 1e-8
            assert np.isfinite(result.history[-1].forward_error)

    def test_solve_batch_validates_input(self, medium_workload):
        solver = QSVTLinearSolver(medium_workload.matrix, epsilon_l=1e-2,
                                  backend="exact")
        driver = MixedPrecisionRefinement(solver)
        with pytest.raises(ValueError):
            driver.solve_batch(np.zeros((2, 16)))
        with pytest.raises(ValueError):
            driver.solve_batch(np.ones((2, 8)))
