"""Linear-Combination-of-Unitaries (LCU) block-encoding.

The matrix is first decomposed into Pauli strings (tree-approach decomposition
of Ref. [25], re-implemented in :mod:`repro.quantum.pauli`):

.. math::  A = \\sum_j \\alpha_j P_j .

Complex coefficients are handled by absorbing their phase into the selected
unitary, so the LCU uses the non-negative weights ``|α_j|`` and the unitaries
``e^{i arg(α_j)} P_j``.  The block-encoding is the standard
``PREPARE† · SELECT · PREPARE`` sandwich:

* ``PREPARE`` maps ``|0..0>`` of the ``m = ceil(log2 L)`` ancillas to
  ``Σ_j sqrt(|α_j| / λ) |j>`` with ``λ = Σ_j |α_j|`` (implemented with the
  tree-based state preparation);
* ``SELECT`` applies ``e^{i arg(α_j)} P_j`` to the data register controlled on
  the ancilla register being ``|j>``.

The subnormalisation is ``alpha = λ = Σ_j |α_j|``.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import BlockEncodingError
from ..quantum import QuantumCircuit
from ..quantum.pauli import PauliString, pauli_decompose
from ..stateprep import prepare_state_circuit
from .base import BlockEncoding

__all__ = ["LCUBlockEncoding"]


class LCUBlockEncoding(BlockEncoding):
    """Block-encoding of ``A`` as a linear combination of Pauli unitaries.

    Parameters
    ----------
    matrix:
        Matrix to encode (``N x N`` with ``N`` a power of two).
    terms:
        Optional pre-computed Pauli decomposition; when omitted it is computed
        with :func:`repro.quantum.pauli.pauli_decompose`.
    tolerance:
        Pruning threshold passed to the Pauli decomposition.
    decompose_prepare:
        When ``True`` the PREPARE circuits are expanded into elementary gates
        (CNOT + Ry); the default keeps them as dense multiplexor blocks, which
        simulates faster and is unitarily identical.
    """

    def __init__(self, matrix, *, terms: list[PauliString] | None = None,
                 tolerance: float = 1e-12, decompose_prepare: bool = False) -> None:
        mat = self._init_common(matrix, name="lcu")
        self.terms = terms if terms is not None else pauli_decompose(mat, tolerance=tolerance)
        if not self.terms:
            raise BlockEncodingError("the matrix has an empty Pauli decomposition")
        weights = np.array([abs(t.coefficient) for t in self.terms], dtype=float)
        self.alpha = float(weights.sum())
        self.num_terms = len(self.terms)
        self.num_ancillas = max(1, int(np.ceil(np.log2(self.num_terms))))
        self._decompose_prepare = bool(decompose_prepare)
        self._weights = weights

    # ------------------------------------------------------------------ #
    def prepare_vector(self) -> np.ndarray:
        """Amplitudes loaded by PREPARE: ``sqrt(|α_j|/λ)`` padded to ``2**m``."""
        padded = np.zeros(2**self.num_ancillas)
        padded[: self.num_terms] = np.sqrt(self._weights / self.alpha)
        return padded

    def circuit(self) -> QuantumCircuit:
        """``PREPARE† · SELECT · PREPARE`` circuit (ancillas are qubits ``0..m-1``)."""
        m, n = self.num_ancillas, self.num_data_qubits
        qc = QuantumCircuit(m + n, name="lcu_block_encoding")
        prepare = prepare_state_circuit(self.prepare_vector(),
                                        decompose=self._decompose_prepare).circuit
        ancilla_qubits = list(range(m))
        data_qubits = list(range(m, m + n))
        qc.compose(prepare, qubit_map=ancilla_qubits)
        # SELECT: controlled application of each (phased) Pauli term
        for index, term in enumerate(self.terms):
            phase = term.coefficient / abs(term.coefficient)
            unitary = phase * term.unitary()
            control_bits = [(index >> (m - 1 - bit)) & 1 for bit in range(m)]
            qc.unitary(unitary, qubits=data_qubits, name=f"select_{term.label}",
                       controls=ancilla_qubits, control_states=control_bits)
        qc.compose(prepare.inverse(), qubit_map=ancilla_qubits)
        return qc

    def _prepare_and_select(self) -> tuple[np.ndarray, np.ndarray]:
        """PREPARE unitary ``P`` and the stacked SELECT blocks ``S_j``.

        ``P`` is the same unitary :meth:`circuit` uses (obtained by simulating
        the small ``m``-qubit preparation circuit); ``S_j`` is the phased
        Pauli ``e^{i arg(α_j)} P_j``, or the identity on unused ancilla states.
        """
        from ..quantum.statevector import circuit_unitary

        prepare = circuit_unitary(prepare_state_circuit(
            self.prepare_vector(), decompose=self._decompose_prepare).circuit)
        dim_dat = 2**self.num_data_qubits
        select = np.tile(np.eye(dim_dat, dtype=complex), (2**self.num_ancillas, 1, 1))
        for j, term in enumerate(self.terms):
            select[j] = term.coefficient / abs(term.coefficient) * term.unitary()
        return prepare, select

    def unitary(self) -> np.ndarray:
        """Dense unitary assembled directly (faster than simulating the circuit).

        ``PREPARE†·SELECT·PREPARE`` with SELECT block-diagonal and PREPARE
        ``P ⊗ I`` is the contraction
        ``U[(i,a),(k,b)] = Σ_j conj(P[j,i])·P[j,k]·S_j[a,b]``, done one ancilla
        row ``i`` at a time so no intermediate is larger than a row block.
        Nothing is cached: the result is ``4**(m+n)`` complex entries.
        """
        prepare, select = self._prepare_and_select()
        dim_anc, dim_dat = select.shape[0], select.shape[1]
        blocks = select.reshape(dim_anc, -1)
        out = np.empty((dim_anc, dim_dat, dim_anc, dim_dat), dtype=complex)
        for i in range(dim_anc):
            rows = (prepare[:, i].conj()[:, None] * blocks).T @ prepare   # ((a,b), k)
            out[i] = rows.reshape(dim_dat, dim_dat, dim_anc).transpose(0, 2, 1)
        return out.reshape(dim_anc * dim_dat, dim_anc * dim_dat)

    def encoded_block(self) -> np.ndarray:
        """Top-left block ``Σ_j |P[j,0]|²·S_j`` without forming the unitary."""
        prepare, select = self._prepare_and_select()
        return np.tensordot(np.abs(prepare[:, 0])**2, select, axes=1)
