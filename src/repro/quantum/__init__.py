"""Dense state-vector quantum simulator.

The paper runs its experiments on the myQLM simulator; this sub-package is the
from-scratch replacement.  It provides

* a gate library (:mod:`repro.quantum.gates`),
* a :class:`~repro.quantum.circuit.QuantumCircuit` container with the usual
  constructors (``h``, ``cx``, ``mcx``, arbitrary ``unitary`` blocks, ...),
* a dense state-vector engine (:mod:`repro.quantum.statevector`) able to apply
  circuits, compute full unitaries and post-select ancilla outcomes,
* a compiled execution-plan IR (:mod:`repro.quantum.plan`): circuits are
  lowered once into fused contraction sequences that every execution path
  (single state, batches, the QSVT backends) replays,
* measurement/sampling utilities (:mod:`repro.quantum.measurement`),
* gate decompositions used for fault-tolerant resource estimation
  (:mod:`repro.quantum.decompositions`, :mod:`repro.quantum.resources`),
* Pauli-string utilities and the tree-approach Pauli decomposition
  (:mod:`repro.quantum.pauli`) needed by the LCU block-encoding, and
* an ASCII circuit renderer (:mod:`repro.quantum.drawing`) used to reproduce
  Figure 2 of the paper.

Qubit ordering convention
-------------------------
Qubit 0 is the **most significant** bit of a basis-state index (big-endian):
the basis state ``|q0 q1 ... q_{n-1}>`` has index ``q0*2^{n-1} + ... + q_{n-1}``.
"""

from .gates import Gate, controlled_matrix, standard_gate_matrix
from .circuit import QuantumCircuit
from .plan import (
    ExecutionPlan,
    PlanOp,
    circuit_plan_fingerprint,
    compile_plan,
    plan_cache,
)
from .statevector import (
    Statevector,
    apply_circuit,
    circuit_unitary,
    zero_state,
)
from .measurement import (
    MeasurementResult,
    marginal_probabilities,
    postselect,
    postselect_batched,
    probabilities,
    sample_counts,
)
from .pauli import PauliString, pauli_decompose, pauli_matrix, pauli_reconstruct
from .resources import ResourceCounter, ResourceEstimate, estimate_circuit_resources
from .decompositions import (
    gray_code,
    mcx_circuit,
    multiplexed_ry_circuit,
    multiplexed_rz_circuit,
    toffoli_circuit,
)
from .drawing import draw_circuit

__all__ = [
    "Gate",
    "standard_gate_matrix",
    "controlled_matrix",
    "QuantumCircuit",
    "ExecutionPlan",
    "PlanOp",
    "compile_plan",
    "circuit_plan_fingerprint",
    "plan_cache",
    "Statevector",
    "zero_state",
    "apply_circuit",
    "circuit_unitary",
    "MeasurementResult",
    "probabilities",
    "marginal_probabilities",
    "sample_counts",
    "postselect",
    "postselect_batched",
    "PauliString",
    "pauli_matrix",
    "pauli_decompose",
    "pauli_reconstruct",
    "ResourceCounter",
    "ResourceEstimate",
    "estimate_circuit_resources",
    "gray_code",
    "mcx_circuit",
    "toffoli_circuit",
    "multiplexed_ry_circuit",
    "multiplexed_rz_circuit",
    "draw_circuit",
]
