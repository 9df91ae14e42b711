"""Engine subsystem tests: batched simulation, compiled-solver cache, runner.

The three contracts asserted here are the ones the engine's throughput story
rests on: (a) one batched plan sweep is *exactly* the per-state simulator
run ``B`` times (agreement to 1e-12 on random circuits); (b) cache hits skip
synthesis entirely (observable through the compile counter); (c) the parallel
scenario runner returns results identical to serial execution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import QSVTLinearSolver
from repro.engine import (
    CompiledSolverCache,
    ScenarioRunner,
    SolveJob,
    build_scenario,
    execute_job,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.exceptions import StaleSynthesisError
from repro.linalg import random_matrix_with_condition_number, random_rhs
from repro.qsp.qsvt_circuit import apply_qsvt_to_vector, apply_qsvt_to_vectors
from repro.quantum import QuantumCircuit, Statevector
from repro.quantum.measurement import postselect, postselect_batched
from repro.quantum.statevector import apply_circuit
from repro.utils import matrix_fingerprint


# ---------------------------------------------------------------------- #
# helpers
# ---------------------------------------------------------------------- #
def _random_unitary(dim: int, rng) -> np.ndarray:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_circuit(num_qubits: int, rng, *, num_gates: int = 30) -> QuantumCircuit:
    """A random circuit mixing every gate shape the simulator supports."""
    qc = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.integers(0, 7)
        qubits = rng.permutation(num_qubits)
        if kind == 0:
            qc.h(int(qubits[0]))
        elif kind == 1:
            qc.rx(float(rng.uniform(-np.pi, np.pi)), int(qubits[0]))
        elif kind == 2:
            qc.cx(int(qubits[0]), int(qubits[1]))
        elif kind == 3:
            qc.cry(float(rng.uniform(-np.pi, np.pi)), int(qubits[0]), int(qubits[1]))
        elif kind == 4 and num_qubits >= 3:
            # multi-controlled X with a 0-control, the QSVT projector shape
            qc.mcx([int(qubits[0]), int(qubits[1])], int(qubits[2]),
                   control_states=[0, 1])
        elif kind == 5:
            qc.unitary(_random_unitary(4, rng),
                       [int(qubits[0]), int(qubits[1])], name="rand2q")
        else:
            qc.swap(int(qubits[0]), int(qubits[1]))
    return qc


def _random_batch(batch_size: int, num_qubits: int, rng) -> np.ndarray:
    data = (rng.standard_normal((batch_size, 2**num_qubits))
            + 1j * rng.standard_normal((batch_size, 2**num_qubits)))
    return data / np.linalg.norm(data, axis=1)[:, None]


# ---------------------------------------------------------------------- #
# (a) one batched plan sweep == per-state simulation
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("num_qubits", [2, 4])
def test_batched_matches_per_state_simulation(seed, num_qubits):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(num_qubits, rng)
    data = _random_batch(5, num_qubits, rng)

    batched = circuit.compile().apply_batched(data)
    for i in range(data.shape[0]):
        single = apply_circuit(circuit, Statevector(data[i]))
        np.testing.assert_allclose(batched[i], single.data,
                                   atol=1e-12, rtol=0)


def test_batched_postselect_matches_single(rng):
    num_qubits = 4
    circuit = _random_circuit(num_qubits, rng)
    data = _random_batch(4, num_qubits, rng)
    batched = circuit.compile().apply_batched(data)
    reduced, probs = postselect_batched(batched, [0, 1], 0, renormalize=False)
    for i in range(data.shape[0]):
        single = apply_circuit(circuit, Statevector(data[i]))
        expected, prob = postselect(single, [0, 1], 0, renormalize=False)
        np.testing.assert_allclose(reduced[i], expected.data, atol=1e-12, rtol=0)
        assert probs[i] == pytest.approx(prob, abs=1e-12)


def test_apply_qsvt_to_vectors_matches_single(prepared_circuit_solver):
    backend = prepared_circuit_solver.backend
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((6, prepared_circuit_solver.dimension))
    application = apply_qsvt_to_vectors(backend.block, backend.phases, batch)
    assert application.batch_size == 6
    for i in range(6):
        single = apply_qsvt_to_vector(backend.block, backend.phases, batch[i])
        np.testing.assert_allclose(application.vectors[i], single.vector,
                                   atol=1e-12, rtol=0)
        assert application.success_probabilities[i] == pytest.approx(
            single.success_probability, abs=1e-12)
    assert application.block_encoding_calls == single.block_encoding_calls


def _assert_solve_is_batch_of_one(make_inner_solver, route, rng):
    """``solve(b)`` equals ``solve_batch(b[None])[0]``: bit for bit on the
    dense and circuit routes, to 1e-12 on the matrix-free ones.  The twin
    is a fresh synthesis, so the seeded surrogate replays the same noise.
    Returns the first solver for further checks."""
    solver = make_inner_solver(route)
    rhs = random_rhs(solver.dimension, rng=rng)
    single = solver.solve(rhs)
    twin = make_inner_solver(route).solve_batch(rhs[None])[0]
    if "matrix-free" in route:
        np.testing.assert_allclose(single.x, twin.x, atol=1e-12, rtol=0,
                                   err_msg=route)
    else:
        assert np.array_equal(single.x, twin.x), route
        assert single.scaled_residual == twin.scaled_residual, route
    assert single.block_encoding_calls == twin.block_encoding_calls, route
    return solver


def _assert_batch_matches_loop(solver, batch):
    batched = solver.solve_batch(batch)
    for i, record in enumerate(batched):
        single = solver.solve(batch[i])
        np.testing.assert_allclose(record.x, single.x, atol=1e-12, rtol=0)
        assert record.block_encoding_calls == single.block_encoding_calls


def test_solve_batch_matches_looped_solve(prepared_circuit_solver,
                                          make_inner_solver):
    rng = np.random.default_rng(11)
    batch = np.stack([random_rhs(prepared_circuit_solver.dimension, rng=rng)
                      for _ in range(4)])
    _assert_batch_matches_loop(prepared_circuit_solver, batch)
    for route in ("circuit-dense", "circuit-banded-plan", "exact-rng"):
        _assert_solve_is_batch_of_one(make_inner_solver, route, rng)


def test_solve_batch_ideal_backend_matches(prepared_ideal_solver,
                                           make_inner_solver):
    rng = np.random.default_rng(12)
    batch = np.stack([random_rhs(prepared_ideal_solver.dimension, rng=rng)
                      for _ in range(3)])
    _assert_batch_matches_loop(prepared_ideal_solver, batch)
    for route in ("ideal-dense", "ideal-matrix-free",
                  "ideal-dilated-matrix-free"):
        solver = _assert_solve_is_batch_of_one(make_inner_solver, route, rng)
        _assert_batch_matches_loop(solver, np.stack(
            [random_rhs(solver.dimension, rng=rng) for _ in range(3)]))


# ---------------------------------------------------------------------- #
# (b) compiled-solver cache
# ---------------------------------------------------------------------- #
def test_cache_hits_skip_synthesis():
    matrix = random_matrix_with_condition_number(4, 3.0, rng=0)
    cache = CompiledSolverCache()
    first = cache.solver(matrix, epsilon_l=5e-2, backend="exact")
    assert cache.compiles == 1 and cache.misses == 1 and cache.hits == 0
    second = cache.solver(matrix, epsilon_l=5e-2, backend="exact")
    assert second is first            # the compiled object itself is reused
    assert cache.compiles == 1        # zero re-synthesis on the hit
    assert cache.hits == 1
    # an equal-bytes copy of the matrix also hits (fingerprint keying)
    third = cache.solver(matrix.copy(), epsilon_l=5e-2, backend="exact")
    assert third is first and cache.compiles == 1
    # different epsilon_l or backend kind -> distinct entries
    cache.solver(matrix, epsilon_l=1e-2, backend="exact")
    cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    assert cache.compiles == 3


def test_cache_mutation_invalidates_by_fingerprint():
    matrix = random_matrix_with_condition_number(4, 3.0, rng=1)
    cache = CompiledSolverCache()
    first = cache.solver(matrix, epsilon_l=5e-2, backend="exact")
    matrix[0, 0] += 1.0  # in-place mutation changes the key
    second = cache.solver(matrix, epsilon_l=5e-2, backend="exact")
    assert second is not first
    assert cache.compiles == 2
    assert not second.is_stale()


def test_cache_lru_eviction_and_invalidate():
    cache = CompiledSolverCache(maxsize=2)
    matrices = [random_matrix_with_condition_number(4, 3.0, rng=seed)
                for seed in range(3)]
    for matrix in matrices:
        cache.solver(matrix, epsilon_l=5e-2, backend="exact")
    assert len(cache) == 2
    assert matrices[0] not in cache   # least recently used was evicted
    assert matrices[2] in cache
    assert cache.invalidate(matrices[2]) == 1
    assert matrices[2] not in cache
    cache.clear()
    assert len(cache) == 0
    with pytest.raises(ValueError):
        CompiledSolverCache(maxsize=0)


def test_cache_rejects_backend_instances():
    from repro.core import ExactInverseBackend

    cache = CompiledSolverCache()
    with pytest.raises(TypeError):
        cache.solver(np.eye(4), epsilon_l=5e-2, backend=ExactInverseBackend())


def test_cache_rejects_identity_keyed_option_values():
    # repr() of stateful objects embeds memory addresses; such options must be
    # refused instead of silently keying the cache on object identity.
    from repro.core import SamplingModel

    cache = CompiledSolverCache()
    with pytest.raises(TypeError):
        cache.solver(np.eye(4), epsilon_l=5e-2, backend="exact",
                     sampling=SamplingModel())
    with pytest.raises(TypeError):
        cache.solver(np.eye(4), epsilon_l=5e-2, backend="exact",
                     rng=np.random.default_rng(0))
    # primitive-valued options (in any order) key fine
    matrix = random_matrix_with_condition_number(4, 3.0, rng=6)
    a = cache.solver(matrix, epsilon_l=5e-2, backend="ideal",
                     kappa_margin=1.1, error_convention="conservative")
    b = cache.solver(matrix, epsilon_l=5e-2, backend="ideal",
                     error_convention="conservative", kappa_margin=1.1)
    assert a is b


def test_cache_entry_survives_caller_side_mutation():
    # the cached solver owns a private copy, so mutating the caller's array
    # must not poison the entry for later same-bytes requests.
    matrix = random_matrix_with_condition_number(4, 3.0, rng=7)
    original = matrix.copy()
    rhs = random_rhs(4, rng=8)
    cache = CompiledSolverCache()
    first = cache.solver(matrix, epsilon_l=5e-2, backend="ideal")
    matrix[0, 0] += 5.0
    again = cache.solver(original, epsilon_l=5e-2, backend="ideal")
    assert again is first
    assert not again.is_stale()
    assert again.solve(rhs).scaled_residual <= 5e-1  # solves, no stale error


def test_cache_concurrent_misses_compile_once():
    from concurrent.futures import ThreadPoolExecutor

    matrix = random_matrix_with_condition_number(4, 3.0, rng=9)
    cache = CompiledSolverCache()
    with ThreadPoolExecutor(max_workers=4) as pool:
        solvers = list(pool.map(
            lambda _: cache.solver(matrix, epsilon_l=5e-2, backend="ideal"),
            range(8)))
    assert cache.compiles == 1
    assert all(solver is solvers[0] for solver in solvers)
    assert cache.hits + cache.misses == 8 and cache.misses == 1


def test_shared_backend_across_solvers_is_detected():
    from repro.core import IdealPolynomialBackend

    backend = IdealPolynomialBackend()
    matrix_a = random_matrix_with_condition_number(4, 3.0, rng=10)
    matrix_b = random_matrix_with_condition_number(4, 3.0, rng=11)
    rhs = random_rhs(4, rng=12)
    solver_a = QSVTLinearSolver(matrix_a, epsilon_l=5e-2, backend=backend)
    solver_b = QSVTLinearSolver(matrix_b, epsilon_l=5e-2, backend=backend)
    # the shared backend now holds B's synthesis: solving through A must not
    # silently return B-flavoured answers.
    with pytest.raises(StaleSynthesisError):
        solver_a.solve(rhs)
    assert solver_b.solve(rhs).scaled_residual <= 5e-1
    solver_a.recompile()  # re-synthesises the backend for A...
    assert solver_a.solve(rhs).scaled_residual <= 5e-1
    with pytest.raises(StaleSynthesisError):
        solver_b.solve(rhs)  # ...which in turn makes B's view stale


# ---------------------------------------------------------------------- #
# staleness guard (shared fingerprint machinery)
# ---------------------------------------------------------------------- #
def test_solver_detects_in_place_mutation():
    matrix = random_matrix_with_condition_number(4, 3.0, rng=2)
    rhs = random_rhs(4, rng=3)
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend="ideal")
    assert not solver.is_stale()
    assert not solver.backend.is_stale(solver.matrix)
    baseline = solver.solve(rhs).scaled_residual
    solver.matrix *= 2.0  # the compiled synthesis is now for the wrong matrix
    assert solver.is_stale()
    with pytest.raises(StaleSynthesisError):
        solver.solve(rhs)
    with pytest.raises(StaleSynthesisError):
        solver.solve_batch(rhs[None, :])
    solver.recompile()
    assert not solver.is_stale()
    assert solver.solve(rhs).scaled_residual <= 10 * baseline


def test_custom_backend_without_fingerprinting_works_through_solver():
    # third-party prepare() implementations that never call _record_synthesis
    # must not trip the staleness guard: the solver records on their behalf.
    from repro.core import QSVTBackend
    from repro.core.backends import BackendApplication

    class NaiveBackend(QSVTBackend):
        name = "naive"

        def prepare(self, matrix, *, epsilon_l, kappa=None):
            self.matrix = np.asarray(matrix, dtype=float)

        def apply_inverse(self, rhs):
            x = np.linalg.solve(self.matrix, np.asarray(rhs, dtype=float))
            return BackendApplication(direction=x / np.linalg.norm(x),
                                      block_encoding_calls=0, polynomial_degree=0)

    matrix = random_matrix_with_condition_number(4, 3.0, rng=13)
    rhs = random_rhs(4, rng=14)
    solver = QSVTLinearSolver(matrix, epsilon_l=5e-2, backend=NaiveBackend())
    assert solver.solve(rhs).scaled_residual < 1e-10


def test_cache_failed_synthesis_does_not_leak_compile_locks():
    cache = CompiledSolverCache()
    bad = np.eye(3)  # not a power of two -> block-encoding synthesis raises
    for _ in range(3):
        with pytest.raises(Exception):
            cache.solver(bad, epsilon_l=5e-2, backend="circuit")
    assert len(cache._compile_locks) == 0
    assert len(cache) == 0


def test_fingerprint_is_exact_over_bytes():
    matrix = np.arange(16, dtype=float).reshape(4, 4)
    fp = matrix_fingerprint(matrix)
    assert matrix_fingerprint(matrix.copy()) == fp
    assert matrix_fingerprint(matrix + 1e-300) != fp
    assert matrix_fingerprint(matrix.reshape(2, 8)) != fp
    assert matrix_fingerprint(matrix.astype(np.float32)) != fp


# ---------------------------------------------------------------------- #
# (c) scenario runner: parallel == serial
# ---------------------------------------------------------------------- #
def _sweep_jobs():
    return build_scenario("kappa-sweep", dimension=8, kappas=(2.0, 5.0, 8.0),
                          epsilon_l=5e-2, backend="ideal", rng=4).jobs


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_runner_parallel_matches_serial(mode):
    jobs = _sweep_jobs()
    serial = ScenarioRunner(mode="serial", max_workers=1).run(jobs)
    parallel = ScenarioRunner(mode=mode, max_workers=2).run(jobs)
    assert [r.name for r in parallel] == [r.name for r in serial]
    for par, ser in zip(parallel, serial):
        assert par.ok and ser.ok
        assert par.converged == ser.converged
        assert par.iterations == ser.iterations
        np.testing.assert_allclose(par.x, ser.x, atol=1e-12, rtol=0)


def test_runner_isolates_job_failures():
    # a zero right-hand side cannot be solved (any backend); the non-power-
    # of-two size additionally exercises the auto fallback to the ideal
    # backend, which used to crash in the circuit encodings instead
    jobs = _sweep_jobs()[:1] + [
        SolveJob(name="broken", matrix=np.eye(3), rhs=np.zeros(3))]
    results = ScenarioRunner(mode="serial").run(jobs)
    assert results[0].ok
    assert not results[1].ok and "zero right-hand side" in results[1].error
    assert ScenarioRunner(mode="serial").run([]) == []
    with pytest.raises(ValueError):
        ScenarioRunner(mode="rocket")
    with pytest.raises(ValueError):
        ScenarioRunner(max_workers=0)


def test_runner_shares_cache_across_jobs():
    jobs = build_scenario("poisson-multi-rhs", num_points=8, num_rhs=4,
                          epsilon_l=5e-2, backend="ideal", rng=5).jobs
    cache = CompiledSolverCache()
    runner = ScenarioRunner(mode="serial", cache=cache)
    results = runner.run(jobs)
    assert all(result.ok for result in results)
    # four jobs, one matrix: exactly one synthesis
    assert cache.compiles == 1 and cache.hits == 3


def test_execute_job_single_vs_refined():
    job = _sweep_jobs()[0]
    refined = execute_job(job, CompiledSolverCache())
    assert refined.ok and refined.converged and refined.iterations >= 1
    single = SolveJob(name="single", matrix=job.matrix, rhs=job.rhs,
                      epsilon_l=5e-2, backend="ideal")
    record = execute_job(single, CompiledSolverCache())
    assert record.ok and record.iterations == 0
    assert record.scaled_residual <= 5e-2


# ---------------------------------------------------------------------- #
# scenario registry
# ---------------------------------------------------------------------- #
def test_registry_builtins_and_errors():
    names = scenario_names()
    for expected in ("poisson", "poisson-multi-rhs", "kappa-sweep", "epsilon-sweep"):
        assert expected in names
    descriptions = list_scenarios()
    assert all(descriptions[name] for name in names)
    with pytest.raises(KeyError):
        build_scenario("no-such-scenario")

    scenario = build_scenario("poisson-multi-rhs", num_points=8, num_rhs=3, rng=0)
    assert len(scenario) == 3
    fingerprints = {matrix_fingerprint(job.matrix) for job in scenario.jobs}
    assert len(fingerprints) == 1  # one shared matrix -> cache-friendly

    sweep = build_scenario("epsilon-sweep", dimension=8, epsilons=(1e-1, 1e-2))
    assert [job.epsilon_l for job in sweep.jobs] == [1e-1, 1e-2]


def test_registry_custom_registration():
    @register_scenario("identity-test", description="trivial identity solves")
    def _identity(dimension: int = 4) -> list[SolveJob]:
        return [SolveJob(name="identity", matrix=np.eye(dimension),
                         rhs=np.ones(dimension), epsilon_l=5e-2, backend="exact")]

    try:
        scenario = build_scenario("identity-test", dimension=4)
        assert scenario.description == "trivial identity solves"
        results = ScenarioRunner(mode="serial").run(scenario.jobs)
        assert results[0].ok
    finally:
        from repro.engine import unregister_scenario

        unregister_scenario("identity-test")
