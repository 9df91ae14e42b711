"""QSVT circuit construction (Eqs. (2)–(3) of the paper).

Given a block-encoding ``U`` of ``Ã`` with the "ancillas-all-zero" projector
``Π = |0^a><0^a| ⊗ I`` and a phase vector ``φ_1 .. φ_d``, the alternating
phase modulation sequence of the paper applies, to the input state, the
temporal sequence

    U, e^{iφ_d(2Π-I)}, U†, e^{iφ_{d-1}(2Π-I)}, U, ..., U, e^{iφ_1(2Π-I)}

(for odd ``d``; the even case differs only in ending with ``U†``).  Projecting
the ancillas back onto ``|0^a>`` yields ``P^{(SV)}(Ã)`` applied to the data
register, where ``P`` is the polynomial associated with the phases in the
*reflection* convention

    P(x) = [ Π_{k=1}^{d} e^{iφ_k Z} R(x) ]_{00},
    R(x) = [[x, sqrt(1-x²)], [sqrt(1-x²), -x]].

The phase-factor solver works in the more common ``W_x`` convention, so this
module also provides the exact conversion between the two: with
``R(x) = e^{-iπ/2} · e^{iαZ} W(x) e^{iβZ}`` for any ``α + β = π/2``, choosing
``β = θ_d`` gives

    φ_1 = θ_0 + θ_d - π/2,      φ_j = θ_{j-1} - π/2   (j = 2..d),

and the circuit block equals ``e^{-iπd/2} · P_wx(Ã)``; the residual global
phase is returned so backends can undo it classically (or absorb it in a
global-phase gate).

Since ``⟨0|U_wx(x, -θ)|0⟩ = conj(⟨0|U_wx(x, θ)|0⟩)`` for real ``x``, running
the circuit for both ``+θ`` and ``-θ`` and averaging the (unnormalised)
post-selected vectors implements the *real part* of the polynomial exactly —
which is what the linear solver needs, because the solver's target (Eq. (4))
is a real polynomial and only its real part can be represented by a single
QSP product.

The ``-θ`` run need not be simulated when the block-encoding is *real* (no
gate matrix has a nonzero imaginary part).  Its circuit phases are
``φ' = -φ - π``, so every projector phase is ``e^{iφ'(2Π-I)} =
-conj(e^{iφ(2Π-I)})`` and, with ``U = conj(U)``, the whole ``-θ`` circuit is
``(-1)^d · conj`` of the ``+θ`` one.  Both runs share the global phase
``g = e^{-iπd/2}`` and ``conj(g)·(-1)^d = g``, hence for every data vector
``v``

    conj(g) · P_{-θ}(v) = conj( conj(g) · P_{+θ}(conj(v)) ),

and for a real ``v`` the ``±θ`` average is exactly ``Re(conj(g)·P_{+θ}(v))``.
:func:`compile_qsvt_program` therefore compiles only the ``+θ`` plan for a
real encoding and :class:`QSVTProgram` derives the ``-θ`` run by conjugation
(one sweep for real data, a second sweep of the same plan on ``conj(v)`` for
complex data).  The *modeled* device still runs both circuits: ``num_runs``
is 2 and ``block_encoding_calls`` is ``2d``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..blockencoding.base import BlockEncoding
from ..exceptions import DimensionError
from ..quantum import QuantumCircuit
from ..quantum.measurement import postselect_batched
from ..quantum.plan import ExecutionPlan

__all__ = [
    "wx_to_circuit_phases",
    "projector_phase_gate",
    "build_qsvt_circuit",
    "QSVTApplication",
    "QSVTBatchApplication",
    "QSVTProgram",
    "compile_qsvt_program",
    "apply_qsvt_to_vector",
    "apply_qsvt_to_vectors",
]


# ---------------------------------------------------------------------- #
# phase conversion
# ---------------------------------------------------------------------- #
def wx_to_circuit_phases(wx_phases) -> tuple[np.ndarray, complex]:
    """Convert Wx-convention QSP phases to the circuit (reflection) convention.

    Parameters
    ----------
    wx_phases:
        Phase vector ``θ_0 .. θ_d`` (length ``d + 1``).

    Returns
    -------
    (circuit_phases, global_phase)
        ``circuit_phases`` has length ``d`` (``φ_1 .. φ_d`` of Eqs. (2)–(3))
        and ``global_phase`` is the factor ``e^{-iπd/2}`` by which the circuit
        block differs from the Wx polynomial; multiply results by its
        conjugate to undo it.
    """
    theta = np.asarray(wx_phases, dtype=float)
    if theta.ndim != 1 or theta.shape[0] < 2:
        raise DimensionError("wx_phases must contain at least two phases")
    d = theta.shape[0] - 1
    phi = np.empty(d)
    phi[0] = theta[0] + theta[d] - np.pi / 2.0
    if d > 1:
        phi[1:] = theta[1:d] - np.pi / 2.0
    global_phase = np.exp(-1j * np.pi * d / 2.0)
    return phi, complex(global_phase)


# ---------------------------------------------------------------------- #
# projector-controlled phase
# ---------------------------------------------------------------------- #
def projector_phase_gate(num_ancillas: int, angle: float) -> np.ndarray:
    """Diagonal matrix of ``e^{iφ(2Π-I)}`` restricted to the ancilla register.

    ``Π`` projects onto the all-zero ancilla state, so the operator is
    diagonal with ``e^{iφ}`` on index 0 and ``e^{-iφ}`` elsewhere; it acts as
    the identity on the data register and can therefore be applied as an
    ``num_ancillas``-qubit gate.
    """
    if num_ancillas < 1:
        raise DimensionError("need at least one ancilla qubit")
    diag = np.full(2**num_ancillas, np.exp(-1j * angle), dtype=complex)
    diag[0] = np.exp(1j * angle)
    return np.diag(diag)


def _append_projector_phase(circuit: QuantumCircuit, block: BlockEncoding,
                            angle: float, *, use_flag_qubit: bool) -> None:
    ancillas = list(range(block.num_ancillas))
    if not use_flag_qubit:
        circuit.unitary(projector_phase_gate(block.num_ancillas, angle),
                        qubits=ancillas, name="proj_phase")
        return
    flag = block.num_qubits            # the extra qubit appended after data
    zeros = [0] * block.num_ancillas
    circuit.mcx(ancillas, flag, control_states=zeros)
    circuit.rz(2.0 * angle, flag)
    circuit.mcx(ancillas, flag, control_states=zeros)


# ---------------------------------------------------------------------- #
# circuit construction
# ---------------------------------------------------------------------- #
def build_qsvt_circuit(block: BlockEncoding, circuit_phases, *,
                       dense_block_encoding: bool = True,
                       use_flag_qubit: bool = False) -> QuantumCircuit:
    """Assemble the QSVT circuit for the given block-encoding and phases.

    Parameters
    ----------
    block:
        Block-encoding of the matrix the polynomial acts on.
    circuit_phases:
        Phases ``φ_1 .. φ_d`` in the circuit (reflection) convention — use
        :func:`wx_to_circuit_phases` to obtain them from Wx phases.
    dense_block_encoding:
        When ``True`` (default) the block-encoding is inserted as a single
        dense unitary gate (fast to simulate); otherwise its gate-level
        circuit is inlined (meaningful resource counts).
    use_flag_qubit:
        Implement each projector phase with the explicit
        MCX–RZ–MCX construction on an extra flag qubit instead of a diagonal
        ancilla-register gate.
    """
    phases = np.asarray(circuit_phases, dtype=float)
    if phases.ndim != 1 or phases.shape[0] < 1:
        raise DimensionError("circuit_phases must contain at least one phase")
    d = phases.shape[0]
    num_qubits = block.num_qubits + (1 if use_flag_qubit else 0)
    qc = QuantumCircuit(num_qubits, name=f"qsvt(d={d})")
    all_block_qubits = list(range(block.num_qubits))

    if dense_block_encoding:
        be_unitary = block.unitary()
        be_dagger = be_unitary.conj().T

        def append_be(adjoint: bool) -> None:
            qc.unitary(be_dagger if adjoint else be_unitary, qubits=all_block_qubits,
                       name="BE†" if adjoint else "BE")
    else:
        be_circuit = block.circuit()
        be_inverse = be_circuit.inverse()

        def append_be(adjoint: bool) -> None:
            qc.compose(be_inverse if adjoint else be_circuit,
                       qubit_map=all_block_qubits)

    # temporal sequence: U, phase(φ_d), U†, phase(φ_{d-1}), ..., ending with phase(φ_1)
    for step in range(d):
        append_be(adjoint=(step % 2 == 1))
        angle = float(phases[d - 1 - step])
        _append_projector_phase(qc, block, angle, use_flag_qubit=use_flag_qubit)
    return qc


# ---------------------------------------------------------------------- #
# high-level application helper
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QSVTApplication:
    """Result of applying a QSVT polynomial to a data vector.

    Attributes
    ----------
    vector:
        The (unnormalised) transformed data vector ``Re(P)(Ã) · v``.
    success_probability:
        Probability of finding the block-encoding ancillas in ``|0..0>``
        (averaged over the ``±θ`` runs).
    block_encoding_calls:
        Number of calls to the block-encoding or its adjoint that the
        application required (``d`` per run, ``2d`` when both signs are run).
    circuit_depth:
        Logical depth of one QSVT circuit.
    """

    vector: np.ndarray
    success_probability: float
    block_encoding_calls: int
    circuit_depth: int


class QSVTProgram:
    """Compiled QSVT application: one :class:`~repro.quantum.plan.ExecutionPlan`
    per simulated phase sign, replayable against any right-hand side.

    Built by :func:`compile_qsvt_program`.  Compilation (circuit assembly +
    gate fusion) happens once; :meth:`apply` and :meth:`apply_batch` only
    replay the fused contraction sequences — this is the object
    :class:`repro.core.backends.CircuitQSVTBackend` stores at ``prepare()``
    time and the compiled-solver cache keeps alive across requests.

    ``conjugate_run`` is set by compilation for a real block-encoding: the
    ``-θ`` run is then derived from the single ``+θ`` plan by conjugation
    (see the module docstring) instead of being compiled and replayed.
    """

    def __init__(self, *, num_qubits: int, num_ancillas: int, dimension: int,
                 plans: Sequence[ExecutionPlan],
                 global_phases: Sequence[complex],
                 block_encoding_calls_per_run: int, circuit_depth: int,
                 conjugate_run: bool = False) -> None:
        if len(plans) != len(global_phases):
            raise DimensionError("one global phase is required per plan")
        if conjugate_run and len(plans) != 1:
            raise DimensionError("a conjugate-derived run needs exactly one plan")
        self.num_qubits = int(num_qubits)
        self.num_ancillas = int(num_ancillas)
        self.dimension = int(dimension)
        self.plans = tuple(plans)
        self.global_phases = tuple(complex(p) for p in global_phases)
        self.block_encoding_calls_per_run = int(block_encoding_calls_per_run)
        self.circuit_depth = int(circuit_depth)
        self.conjugate_run = bool(conjugate_run)

    # ------------------------------------------------------------------ #
    @property
    def num_runs(self) -> int:
        """Modeled circuit runs per application (2 when the real part is
        taken, whether or not the ``-θ`` run is conjugate-derived)."""
        return len(self.plans) + int(self.conjugate_run)

    @property
    def block_encoding_calls(self) -> int:
        """Block-encoding (and adjoint) calls per application."""
        return self.block_encoding_calls_per_run * self.num_runs

    @property
    def contractions_per_sweep(self) -> int:
        """Tensor contractions one application to real data performs (all
        compiled plans; a conjugate-derived run replays none)."""
        return sum(plan.num_contractions for plan in self.plans)

    @property
    def source_gates_per_sweep(self) -> int:
        """Circuit gates the unfused per-gate loop would apply (all compiled
        plans)."""
        return sum(plan.source_gate_count for plan in self.plans)

    def payload_bytes(self) -> int:
        """Bytes held by the compiled plans (for byte-accounted caches)."""
        return sum(plan.payload_bytes() for plan in self.plans)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"QSVTProgram(num_qubits={self.num_qubits}, runs={self.num_runs}, "
                f"contractions={self.contractions_per_sweep}, "
                f"gates={self.source_gates_per_sweep})")

    # ------------------------------------------------------------------ #
    def _normalised(self, data_vector) -> np.ndarray:
        data = np.asarray(data_vector, dtype=complex)
        if data.shape[-1] != self.dimension:
            raise DimensionError(
                f"data vector length {data.shape[-1]} does not match the encoded "
                f"dimension {self.dimension}")
        norms = np.linalg.norm(data, axis=-1)
        if np.any(norms == 0.0):
            raise DimensionError("cannot apply the QSVT to a zero vector")
        return data / norms[:, None]

    def apply(self, data_vector) -> QSVTApplication:
        """Replay the compiled plans on one data vector: a batch of one
        through :meth:`apply_batch` (see module docstring)."""
        batch = self.apply_batch(
            np.asarray(data_vector, dtype=complex).reshape(1, -1))
        return QSVTApplication(
            vector=batch.vectors[0],
            success_probability=float(batch.success_probabilities[0]),
            block_encoding_calls=batch.block_encoding_calls,
            circuit_depth=batch.circuit_depth)

    def _run(self, plan: ExecutionPlan, global_phase: complex,
             data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One sweep of ``plan`` on ``|0^a> ⊗ data_i``: the post-selected
        rows with the global phase undone, and their success probabilities."""
        full = np.zeros((data.shape[0], 2**self.num_qubits), dtype=complex)
        full[:, : self.dimension] = data
        projected, probs = postselect_batched(
            plan.apply_batched(full), list(range(self.num_ancillas)), 0,
            renormalize=False)
        return np.conj(global_phase) * projected, probs

    def apply_batch(self, data_vectors) -> QSVTBatchApplication:
        """Replay the compiled plans on a ``(B, N)`` stack in one sweep per
        compiled plan (plus one for complex data on a conjugate-derived run)."""
        data = np.asarray(data_vectors, dtype=complex)
        if data.ndim != 2:
            raise DimensionError(
                f"data_vectors must be a (B, N) stack, got shape {data.shape}")
        if data.shape[0] < 1:
            raise DimensionError("data_vectors must contain at least one vector")
        data = self._normalised(data)
        accumulated = np.zeros(data.shape, dtype=complex)
        probabilities = np.zeros(data.shape[0])
        for plan, global_phase in zip(self.plans, self.global_phases):
            projected, probs = self._run(plan, global_phase, data)
            accumulated += projected
            probabilities += probs
        if self.conjugate_run:
            # conj(g)·P_{-θ}(v) = conj(conj(g)·P_{+θ}(conj v)) (module
            # docstring): for real data that is the conjugate of the +θ run
            # accumulated above, so only complex data needs another sweep.
            minus, minus_probs = accumulated, probabilities
            if np.any(data.imag):
                minus, minus_probs = self._run(self.plans[0],
                                               self.global_phases[0],
                                               data.conj())
            accumulated += minus.conj()
            probabilities += minus_probs
        accumulated /= self.num_runs
        probabilities /= self.num_runs
        return QSVTBatchApplication(vectors=accumulated,
                                    success_probabilities=probabilities,
                                    block_encoding_calls=self.block_encoding_calls,
                                    circuit_depth=self.circuit_depth)


def compile_qsvt_program(block: BlockEncoding, wx_phases, *,
                         real_part: bool = True,
                         dense_block_encoding: bool = True,
                         fusion: str | None = None,
                         max_fused_qubits: int | None = None) -> QSVTProgram:
    """Compile the QSVT application for ``(block, wx_phases)`` into a program.

    One circuit is assembled per simulated phase sign and lowered to a fused
    :class:`~repro.quantum.plan.ExecutionPlan`: ``+θ`` only, unless the real
    part is taken of a block-encoding with a complex gate, which also needs
    the ``-θ`` plan (a real encoding's ``-θ`` run is conjugate-derived, see
    the module docstring).  The QSVT alternation of block-encoding layers
    and ancilla-diagonal projector phases collapses into far fewer
    contractions than gates.  ``fusion``/``max_fused_qubits`` are forwarded
    to :func:`repro.quantum.plan.compile_plan` (``"none"`` keeps one op per
    gate — the reference the fused program is tested against).
    """
    theta = np.asarray(wx_phases, dtype=float)

    def lower(sign: float):
        phases, global_phase = wx_to_circuit_phases(sign * theta)
        circuit = build_qsvt_circuit(block, phases,
                                     dense_block_encoding=dense_block_encoding)
        plan = circuit.compile(fusion=fusion, max_fused_qubits=max_fused_qubits)
        return circuit, plan, global_phase

    circuit, plan, global_phase = lower(1.0)
    plans, global_phases = [plan], [global_phase]
    # exact test: the encoding is real when no gate but the projector phases
    # has an entry with a nonzero imaginary part
    conjugate_run = real_part and not any(
        np.any(np.imag(gate.matrix)) for gate in circuit
        if gate.name != "proj_phase")
    if real_part and not conjugate_run:
        _, plan, global_phase = lower(-1.0)
        plans.append(plan)
        global_phases.append(global_phase)
    return QSVTProgram(num_qubits=block.num_qubits,
                       num_ancillas=block.num_ancillas,
                       dimension=block.dimension,
                       plans=plans, global_phases=global_phases,
                       block_encoding_calls_per_run=theta.shape[0] - 1,
                       circuit_depth=circuit.depth(),
                       conjugate_run=conjugate_run)


def apply_qsvt_to_vector(block: BlockEncoding, wx_phases, data_vector, *,
                         real_part: bool = True,
                         dense_block_encoding: bool = True,
                         fusion: str | None = None) -> QSVTApplication:
    """Apply ``Re(P_wx)`` (or ``P_wx``) of the encoded matrix to ``data_vector``.

    The data vector is normalised, loaded next to ``|0^a>`` ancillas, run
    through the QSVT circuit, and the ancillas are post-selected on
    ``|0..0>``.  When ``real_part`` is ``True`` the procedure is repeated with
    negated phases and the two (unnormalised) outcomes are averaged, which
    realises the real part of the polynomial exactly; for a real
    block-encoding the negated run is derived by conjugation instead of
    being simulated (see module docstring).

    The execution compiles a :class:`QSVTProgram` and replays it; thanks to
    the process-wide plan cache a repeated call with the same block and
    phases skips the fusion pass.  Callers holding many right-hand sides
    should compile once via :func:`compile_qsvt_program` (this is what the
    circuit backend does).

    Returns the *unnormalised* transformed vector: its norm carries the
    success amplitude, which the linear solver uses only through the
    direction (the scale is recovered classically, Remark 2 of the paper).
    """
    program = compile_qsvt_program(block, wx_phases, real_part=real_part,
                                   dense_block_encoding=dense_block_encoding,
                                   fusion=fusion)
    return program.apply(data_vector)


# ---------------------------------------------------------------------- #
# batched application
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class QSVTBatchApplication:
    """Result of applying one QSVT polynomial to a stack of data vectors.

    Attributes
    ----------
    vectors:
        The (unnormalised) transformed vectors, shape ``(B, N)``; row ``i`` is
        ``Re(P)(Ã) · v_i``.
    success_probabilities:
        Per-vector ancilla post-selection probability (length ``B``).
    block_encoding_calls:
        Block-encoding (and adjoint) calls consumed *per vector* — the batch
        shares one circuit sweep, so the total sweep cost is the same as a
        single-vector application.
    circuit_depth:
        Logical depth of one QSVT circuit.
    """

    vectors: np.ndarray
    success_probabilities: np.ndarray
    block_encoding_calls: int
    circuit_depth: int

    @property
    def batch_size(self) -> int:
        """Number of vectors in the batch."""
        return self.vectors.shape[0]


def apply_qsvt_to_vectors(block: BlockEncoding, wx_phases, data_vectors, *,
                          real_part: bool = True,
                          dense_block_encoding: bool = True,
                          fusion: str | None = None) -> QSVTBatchApplication:
    """Apply ``Re(P_wx)`` of the encoded matrix to ``B`` vectors in one sweep.

    Batched analogue of :func:`apply_qsvt_to_vector`: the ``B`` (normalised)
    data vectors are stacked into a ``(B, 2**q)`` amplitude array next to
    ``|0^a>`` ancillas and the compiled :class:`QSVTProgram` sweeps the whole
    stack once per compiled plan (once in all for a real block-encoding and
    real data) — every fused contraction updates all ``B`` states — before
    row-wise ancilla post-selection
    (:func:`~repro.quantum.measurement.postselect_batched`).  This is the
    engine behind the multi-right-hand-side solve of
    :meth:`repro.core.backends.CircuitQSVTBackend.apply_inverse_batch`: one
    plan sweep for the whole batch instead of ``B`` sweeps.

    Parameters
    ----------
    data_vectors:
        Array-like of shape ``(B, N)`` with ``N = block.dimension`` (a single
        vector must go through :func:`apply_qsvt_to_vector`).

    Returns the *unnormalised* transformed vectors, exactly like the
    single-vector version.
    """
    program = compile_qsvt_program(block, wx_phases, real_part=real_part,
                                   dense_block_encoding=dense_block_encoding,
                                   fusion=fusion)
    return program.apply_batch(data_vectors)
