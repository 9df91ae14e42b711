"""The conjugate-derived ``-θ`` run of a real QSVT block-encoding.

For a real encoding the ``-θ`` circuit is ``(-1)^d · conj`` of the ``+θ``
one, so :func:`compile_qsvt_program` and
:func:`compile_banded_qsvt_program` compile only the ``+θ`` plan and
:class:`QSVTProgram` derives the other run by conjugation.  The oracle is an
explicit two-plan ``±θ`` reference assembled from :func:`build_qsvt_circuit`.
The modeled cost (``num_runs``, ``block_encoding_calls``) and the store round
trip of the conjugate-run field are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.blockencoding import DilationBlockEncoding, LCUBlockEncoding
from repro.blockencoding.banded import (
    BandedPlanBlockEncoding,
    compile_banded_qsvt_program,
)
from repro.engine import CompiledSolverCache, SynthesisStore
from repro.exceptions import DimensionError
from repro.linalg import BandedOperator, random_matrix_with_condition_number
from repro.quantum.plan import ExecutionPlan
from repro.qsp.qsvt_circuit import (
    QSVTProgram,
    build_qsvt_circuit,
    compile_qsvt_program,
    wx_to_circuit_phases,
)

#: allowed deviation from the two-plan reference (max-abs)
TOLERANCE = 1e-13

KINDS = ("dilation", "lcu", "banded-plan")


def _encoding(kind: str, rng):
    if kind == "dilation":
        return DilationBlockEncoding(rng.standard_normal((4, 4)))
    if kind == "lcu":
        return LCUBlockEncoding(rng.standard_normal((4, 4)))
    return BandedPlanBlockEncoding(2, diagonal=2.5, off_diagonal=-1.0)


def _compile(block, wx, fusion):
    if isinstance(block, BandedPlanBlockEncoding):
        return compile_banded_qsvt_program(block, wx)
    return compile_qsvt_program(block, wx, fusion=fusion)


def _two_plan_reference(block, wx, data, fusion):
    """Simulate both ``±θ`` circuits and average, as the paper runs them."""
    data = data / np.linalg.norm(data, axis=1, keepdims=True)
    batch, n = data.shape
    vectors = np.zeros(data.shape, dtype=complex)
    probabilities = np.zeros(batch)
    for sign in (1.0, -1.0):
        phases, global_phase = wx_to_circuit_phases(sign * wx)
        plan = build_qsvt_circuit(block, phases).compile(fusion=fusion)
        full = np.zeros((batch, 2**block.num_qubits), dtype=complex)
        full[:, :n] = data
        # ancillas are the leading qubits: |0^a> ⊗ data is the first n rows
        projected = plan.apply_batched(full)[:, :n]
        vectors += np.conj(global_phase) * projected
        probabilities += np.linalg.norm(projected, axis=1) ** 2
    return vectors / 2, probabilities / 2


def _data(rng, batch, n, complex_data):
    data = rng.standard_normal((batch, n))
    if complex_data:
        data = data + 1j * rng.standard_normal((batch, n))
    return data


def _assert_matches_reference(program, block, wx, data, fusion):
    application = program.apply_batch(data)
    vectors, probabilities = _two_plan_reference(block, wx, data, fusion)
    assert np.max(np.abs(application.vectors - vectors)) <= TOLERANCE
    assert np.max(np.abs(application.success_probabilities
                         - probabilities)) <= TOLERANCE


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fusion", ["none", "greedy"])
@pytest.mark.parametrize("length", [4, 5, 8, 9])
@pytest.mark.parametrize("batch", [1, 3])
def test_one_sweep_matches_two_plan_reference(kind, fusion, length, batch):
    rng = np.random.default_rng([KINDS.index(kind), length, batch])
    block = _encoding(kind, rng)
    wx = rng.uniform(-np.pi, np.pi, size=length)
    program = _compile(block, wx, fusion)
    assert len(program.plans) == 1 and program.conjugate_run
    data = _data(rng, batch, block.dimension, complex_data=False)
    _assert_matches_reference(program, block, wx, data, fusion)
    # real data: the -θ run is exactly the conjugate, so the result is real
    assert not np.any(program.apply_batch(data).vectors.imag)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fusion", ["none", "greedy"])
@pytest.mark.parametrize("length", [4, 5])
def test_complex_data_matches_two_plan_reference(kind, fusion, length):
    rng = np.random.default_rng([10 + KINDS.index(kind), length])
    block = _encoding(kind, rng)
    wx = rng.uniform(-np.pi, np.pi, size=length)
    program = _compile(block, wx, fusion)
    data = _data(rng, 3, block.dimension, complex_data=True)
    _assert_matches_reference(program, block, wx, data, fusion)


@pytest.mark.parametrize("complex_data,sweeps", [(False, 1), (True, 2)])
def test_sweeps_per_application(monkeypatch, complex_data, sweeps):
    rng = np.random.default_rng(20)
    block = _encoding("dilation", rng)
    program = compile_qsvt_program(block, rng.uniform(-1, 1, size=6))
    calls = []
    replay = ExecutionPlan.apply_batched

    def counting(plan, states):
        calls.append(plan)
        return replay(plan, states)

    monkeypatch.setattr(ExecutionPlan, "apply_batched", counting)
    program.apply_batch(_data(rng, 2, block.dimension, complex_data))
    assert len(calls) == sweeps
    assert all(plan is program.plans[0] for plan in calls)


@pytest.mark.parametrize("fusion", ["none", "greedy"])
@pytest.mark.parametrize("complex_data", [False, True])
def test_complex_encoding_keeps_both_plans(fusion, complex_data):
    rng = np.random.default_rng(30)
    matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    block = DilationBlockEncoding(matrix)
    wx = rng.uniform(-np.pi, np.pi, size=5)
    program = compile_qsvt_program(block, wx, fusion=fusion)
    assert len(program.plans) == 2 and not program.conjugate_run
    data = _data(rng, 3, block.dimension, complex_data)
    _assert_matches_reference(program, block, wx, data, fusion)


# ---------------------------------------------------------------------- #
# modeled cost
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_modeled_runs_and_calls_unchanged(kind):
    rng = np.random.default_rng(40)
    block = _encoding(kind, rng)
    wx = rng.uniform(-np.pi, np.pi, size=6)
    d = wx.shape[0] - 1
    program = _compile(block, wx, "greedy")
    assert len(program.plans) == 1
    assert program.num_runs == 2
    assert program.block_encoding_calls == 2 * d
    assert program.apply_batch(np.ones((1, block.dimension))
                               ).block_encoding_calls == 2 * d
    if isinstance(block, BandedPlanBlockEncoding):
        single = compile_banded_qsvt_program(block, wx, real_part=False)
    else:
        single = compile_qsvt_program(block, wx, real_part=False)
    assert (len(single.plans), single.num_runs) == (1, 1)
    assert not single.conjugate_run
    assert single.block_encoding_calls == d


def test_backend_reports_both_modeled_runs(prepared_circuit_solver):
    backend = prepared_circuit_solver.backend
    d = len(backend.phases) - 1
    assert len(backend.program.plans) == 1 and backend.program.conjugate_run
    application = backend.apply_inverse(np.ones(backend.block.dimension))
    assert application.block_encoding_calls == 2 * d


def test_conjugate_run_needs_exactly_one_plan():
    rng = np.random.default_rng(50)
    two = compile_qsvt_program(
        DilationBlockEncoding(rng.standard_normal((2, 2))
                              + 1j * rng.standard_normal((2, 2))),
        rng.uniform(-1, 1, size=4))
    with pytest.raises(DimensionError):
        QSVTProgram(num_qubits=two.num_qubits, num_ancillas=two.num_ancillas,
                    dimension=two.dimension, plans=two.plans,
                    global_phases=two.global_phases,
                    block_encoding_calls_per_run=3, circuit_depth=1,
                    conjugate_run=True)


# ---------------------------------------------------------------------- #
# store round trip
# ---------------------------------------------------------------------- #
_MATRICES = {
    "dense": lambda: random_matrix_with_condition_number(8, 4.0, rng=60),
    "banded-plan": lambda: BandedOperator.toeplitz(
        16, {0: 4.0, 1: -1.0, -1: -1.0}),
}


@pytest.mark.parametrize("route", sorted(_MATRICES))
def test_store_round_trip_keeps_the_conjugate_run(tmp_path, route):
    matrix = _MATRICES[route]()
    store = SynthesisStore(tmp_path)
    compiled = CompiledSolverCache(store=store).solver(
        matrix, epsilon_l=5e-2, backend="circuit")
    fresh = CompiledSolverCache(store=store)
    restored = fresh.solver(matrix, epsilon_l=5e-2, backend="circuit")
    assert fresh.stats()["store_hits"] == 1
    program = restored.backend.program
    assert program.conjugate_run and len(program.plans) == 1
    assert program.num_runs == compiled.backend.program.num_runs == 2
    rhs = np.random.default_rng(61).standard_normal((3, matrix.shape[0]))
    for batch in (rhs, rhs[:1]):
        for a, b in zip(restored.backend.apply_inverse_batch(batch),
                        compiled.backend.apply_inverse_batch(batch)):
            assert np.array_equal(a.direction, b.direction)
            assert a.block_encoding_calls == b.block_encoding_calls


@pytest.mark.parametrize("kind", ["dilation", "lcu"])
def test_real_encoding_payload_halves(kind):
    rng = np.random.default_rng(70)
    block = _encoding(kind, rng)
    wx = rng.uniform(-np.pi, np.pi, size=6)
    program = compile_qsvt_program(block, wx)
    both = [build_qsvt_circuit(block, wx_to_circuit_phases(sign * wx)[0])
            .compile() for sign in (1.0, -1.0)]
    assert 2 * program.payload_bytes() == sum(p.payload_bytes() for p in both)


def test_banded_real_part_payload_is_one_plan():
    block = _encoding("banded-plan", None)
    wx = np.random.default_rng(71).uniform(-np.pi, np.pi, size=6)
    assert (compile_banded_qsvt_program(block, wx).payload_bytes()
            == compile_banded_qsvt_program(block, wx, real_part=False)
            .payload_bytes())
