"""Dense state-vector simulation engine.

The engine stores the ``2**n`` complex amplitudes of the register and applies
gates by reshaping the state into an ``n``-dimensional tensor of shape
``(2,) * n`` and contracting the gate matrix over the target axes
(``numpy.tensordot``), which is the standard ``O(2**n)``-per-gate dense
simulation technique.  Controlled gates are applied by slicing the tensor on
the control axes so only the activated sub-block is updated — no ``2**n x
2**n`` matrices are ever built during simulation.

Whole-circuit execution (:func:`apply_circuit`) is routed through the
compiled :class:`~repro.quantum.plan.ExecutionPlan` IR: the circuit is
lowered once (gate fusion, diagonal fast paths — see
:mod:`repro.quantum.plan`) and the plan is replayed; ``fusion="none"``
selects the original per-gate loop, which the fused plans are verified
against to 1e-12.  A ``(B, 2**n)`` stack of states runs through
``circuit.compile().apply_batched(states)`` in one sweep.

Qubit 0 is the most significant bit of the basis-state index (big-endian).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import DimensionError
from ..utils import check_power_of_two
from .circuit import QuantumCircuit
from .gates import Gate

__all__ = [
    "Statevector",
    "zero_state",
    "apply_gate",
    "apply_circuit",
    "circuit_unitary",
]


class Statevector:
    """State of an ``n``-qubit register.

    Parameters
    ----------
    data:
        Complex amplitudes (length ``2**n``).  They are *not* renormalised:
        sub-normalised states legitimately appear after post-selection.
    """

    def __init__(self, data) -> None:
        arr = np.asarray(data, dtype=complex).reshape(-1)
        check_power_of_two(arr.shape[0], name="statevector length")
        self._data = arr
        self.num_qubits = int(arr.shape[0]).bit_length() - 1

    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """Flat amplitude array (length ``2**num_qubits``)."""
        return self._data

    @property
    def dimension(self) -> int:
        """Hilbert-space dimension."""
        return self._data.shape[0]

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self._data))

    def normalized(self) -> "Statevector":
        """Return a unit-norm copy (raises on the zero vector)."""
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalise the zero state")
        return Statevector(self._data / n)

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities ``|amplitude|**2`` (not renormalised)."""
        return np.abs(self._data) ** 2

    def fidelity(self, other: "Statevector") -> float:
        """``|<self|other>|**2`` between the two *normalised* states."""
        a = self.normalized().data
        b = other.normalized().data
        return float(np.abs(np.vdot(a, b)) ** 2)

    def tensor(self, other: "Statevector") -> "Statevector":
        """Kronecker product ``self ⊗ other`` (self qubits become most significant)."""
        return Statevector(np.kron(self._data, other._data))

    def copy(self) -> "Statevector":
        """Deep copy."""
        return Statevector(self._data.copy())

    def __eq__(self, other) -> bool:  # pragma: no cover - convenience
        return isinstance(other, Statevector) and np.array_equal(self._data, other._data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Statevector(num_qubits={self.num_qubits}, norm={self.norm():.6f})"


def zero_state(num_qubits: int) -> Statevector:
    """The computational basis state ``|0...0>`` on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise DimensionError("num_qubits must be >= 1")
    data = np.zeros(2**num_qubits, dtype=complex)
    data[0] = 1.0
    return Statevector(data)


def basis_state(num_qubits: int, index: int) -> Statevector:
    """Computational basis state ``|index>``."""
    data = np.zeros(2**num_qubits, dtype=complex)
    if not 0 <= index < data.shape[0]:
        raise DimensionError(f"basis index {index} out of range")
    data[index] = 1.0
    return Statevector(data)


# ---------------------------------------------------------------------- #
# gate application
# ---------------------------------------------------------------------- #
def _apply_matrix(tensor: np.ndarray, matrix: np.ndarray,
                  targets: Sequence[int]) -> np.ndarray:
    """Contract ``matrix`` (acting on ``targets``) with the state tensor."""
    k = len(targets)
    num_qubits = tensor.ndim
    gate_tensor = np.asarray(matrix, dtype=complex).reshape((2,) * (2 * k))
    # tensordot contracts the *last* k axes of gate_tensor (the "input" axes)
    # with the target axes of the state, then moves the resulting axes (which
    # end up first) back into place.
    moved = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(moved, list(range(k)), list(targets))


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate and return the new state (input is not modified)."""
    num_qubits = state.num_qubits
    for q in gate.qubits:
        if not 0 <= q < num_qubits:
            raise DimensionError(f"gate touches qubit {q} outside the {num_qubits}-qubit register")
    tensor = state.data.reshape((2,) * num_qubits)
    if not gate.controls:
        new_tensor = _apply_matrix(tensor, gate.matrix, gate.targets)
        return Statevector(new_tensor.reshape(-1))
    # controlled gate: slice out the activated control sub-block
    tensor = tensor.copy()
    index: list = [slice(None)] * num_qubits
    for qubit, state_bit in zip(gate.controls, gate.control_states):
        index[qubit] = 1 if state_bit else 0
    sub = tensor[tuple(index)]
    # target axes inside the sliced tensor: qubits keep their relative order,
    # but every control axis before them has been removed.
    controls_sorted = sorted(gate.controls)

    def shifted(q: int) -> int:
        return q - sum(1 for c in controls_sorted if c < q)

    sub_targets = [shifted(q) for q in gate.targets]
    new_sub = _apply_matrix(sub, gate.matrix, sub_targets)
    tensor[tuple(index)] = new_sub
    return Statevector(tensor.reshape(-1))


def apply_circuit(circuit: QuantumCircuit, state: Statevector | None = None, *,
                  fusion: str | None = None) -> Statevector:
    """Run ``circuit`` on ``state`` (default ``|0...0>``) and return the result.

    Execution goes through the compiled
    :class:`~repro.quantum.plan.ExecutionPlan` of the circuit (cached on the
    exact gate bytes, see :mod:`repro.quantum.plan`); pass ``fusion="none"``
    for the legacy gate-by-gate loop, which is the unfused reference path.
    """
    current = zero_state(circuit.num_qubits) if state is None else state
    if current.num_qubits != circuit.num_qubits:
        raise DimensionError(
            f"state has {current.num_qubits} qubits but circuit expects {circuit.num_qubits}")
    if fusion == "none":
        for gate in circuit:
            current = apply_gate(current, gate)
        return current
    return Statevector(circuit.compile(fusion=fusion).apply(current.data))


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """Full ``2**n x 2**n`` unitary of a circuit (for tests and small circuits).

    Built by replaying the compiled plan once on the batch of all ``2**n``
    basis states (row ``j`` of the batch is column ``j`` of the unitary), so
    the cost is ``O(4**n * gates)`` — fine for the small registers used in
    this project.
    """
    identity = np.eye(circuit.dimension, dtype=complex)
    return circuit.compile().apply_batched(identity).T
