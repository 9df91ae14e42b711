"""Measurement, sampling and post-selection.

The QSVT linear solver reads its output in two steps (Remark 2/3 of the
paper): the block-encoding/QSVT ancillas must be found in ``|0...0>``
(post-selection), and the data register is then sampled to estimate the
normalised solution ``x / ||x||``.  This module provides those primitives plus
shot-based sampling used by the shot-noise ablation study.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import DimensionError
from ..utils import as_generator
from .statevector import Statevector

__all__ = [
    "MeasurementResult",
    "probabilities",
    "marginal_probabilities",
    "sample_counts",
    "postselect",
    "postselect_batched",
    "expectation_value",
]


@dataclass(frozen=True)
class MeasurementResult:
    """Outcome of a shot-based measurement.

    Attributes
    ----------
    counts:
        Mapping from basis-state index (of the measured qubits) to the number
        of shots that returned it.
    shots:
        Total number of shots.
    num_qubits:
        Number of measured qubits.
    """

    counts: dict[int, int]
    shots: int
    num_qubits: int

    def frequencies(self) -> np.ndarray:
        """Empirical probabilities as a dense array of length ``2**num_qubits``."""
        freq = np.zeros(2**self.num_qubits)
        for index, count in self.counts.items():
            freq[index] = count / self.shots
        return freq

    def most_frequent(self) -> int:
        """Basis index observed most often."""
        return max(self.counts.items(), key=lambda kv: kv[1])[0]


def probabilities(state: Statevector) -> np.ndarray:
    """Measurement probabilities of the full register (normalised)."""
    p = state.probabilities()
    total = p.sum()
    if total == 0.0:
        raise ZeroDivisionError("cannot measure the zero state")
    return p / total


def marginal_probabilities(state: Statevector, qubits: Sequence[int]) -> np.ndarray:
    """Probabilities of measuring only ``qubits`` (others traced out).

    The returned array has length ``2**len(qubits)``; entry ``k`` corresponds
    to the bit-string of ``qubits`` read in the order given (first qubit of
    the list = most significant bit of ``k``).
    """
    qubits = [int(q) for q in qubits]
    for q in qubits:
        if not 0 <= q < state.num_qubits:
            raise DimensionError(f"qubit {q} out of range")
    if len(set(qubits)) != len(qubits):
        raise DimensionError("duplicate qubit in marginal measurement")
    tensor = probabilities(state).reshape((2,) * state.num_qubits)
    other_axes = tuple(axis for axis in range(state.num_qubits) if axis not in qubits)
    marginal = tensor.sum(axis=other_axes) if other_axes else tensor
    # marginal axes are the kept qubits in increasing order; permute to the
    # requested order before flattening.
    kept_sorted = sorted(qubits)
    order = [kept_sorted.index(q) for q in qubits]
    marginal = np.transpose(marginal, order)
    return marginal.reshape(-1)


def sample_counts(state: Statevector, shots: int, *, qubits: Sequence[int] | None = None,
                  rng=None) -> MeasurementResult:
    """Sample ``shots`` computational-basis measurements.

    Parameters
    ----------
    state:
        State to measure (it is normalised internally).
    shots:
        Number of independent repetitions (must be positive).
    qubits:
        Subset of qubits to measure (default: all of them).
    rng:
        Seed/generator for reproducibility.
    """
    if shots <= 0:
        raise ValueError("shots must be positive")
    gen = as_generator(rng)
    if qubits is None:
        probs = probabilities(state)
        num_measured = state.num_qubits
    else:
        probs = marginal_probabilities(state, qubits)
        num_measured = len(tuple(qubits))
    outcomes = gen.choice(probs.shape[0], size=shots, p=probs)
    counts: dict[int, int] = {}
    for outcome in outcomes:
        counts[int(outcome)] = counts.get(int(outcome), 0) + 1
    return MeasurementResult(counts=counts, shots=shots, num_qubits=num_measured)


def postselect(state: Statevector, qubits: Sequence[int], outcome: int | Sequence[int],
               *, renormalize: bool = True) -> tuple[Statevector, float]:
    """Project ``qubits`` onto a basis ``outcome`` and return (reduced state, probability).

    A batch of one through :func:`postselect_batched`, which holds the
    projection.  The returned state lives on the *remaining* qubits (the
    measured ones are removed from the register); when every qubit is
    measured it is a trivial 1-qubit register ``[amplitude, 0]`` that keeps
    the surviving amplitude's phase.  ``probability`` is the chance of
    observing that outcome; callers typically check it against the success
    probability predicted by the block-encoding subnormalisation.

    Parameters
    ----------
    state:
        Input state.
    qubits:
        Qubits being measured (first entry = most significant bit of ``outcome``).
    outcome:
        Either an integer (bit-string of the measured qubits) or an explicit
        sequence of bits, one per measured qubit.
    renormalize:
        When ``True`` (default) the reduced state has unit norm; otherwise its
        norm is the square root of the outcome probability.
    """
    reduced, probs = postselect_batched(state.data[None], qubits, outcome,
                                        renormalize=renormalize)
    reduced = reduced[0]
    if reduced.shape[0] == 1:
        reduced = np.array([reduced[0], 0.0], dtype=complex)
    return Statevector(reduced), float(probs[0])


def postselect_batched(states: np.ndarray, qubits: Sequence[int],
                       outcome: int | Sequence[int], *,
                       renormalize: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """:func:`postselect` on a ``(B, 2**n)`` stack of states, all at once.

    Projects ``qubits`` of every row onto the basis ``outcome`` and returns
    ``(reduced, probabilities)`` where ``reduced`` has shape
    ``(B, 2**(n - len(qubits)))`` (``(B, 1)`` when every qubit is measured)
    and ``probabilities[i]`` is the chance of observing the outcome in state
    ``i``.  A zero state, or with ``renormalize`` an outcome of zero
    probability, raises :class:`ZeroDivisionError`.
    """
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2:
        raise DimensionError(
            f"batched states must be a (B, 2**n) array, got shape {states.shape}")
    num_qubits = int(states.shape[1]).bit_length() - 1
    if 2**num_qubits != states.shape[1]:
        raise DimensionError("statevector length must be a power of two")
    qubits = [int(q) for q in qubits]
    for q in qubits:
        if not 0 <= q < num_qubits:
            raise DimensionError(f"qubit {q} out of range")
    if len(set(qubits)) != len(qubits):
        raise DimensionError("duplicate qubit in post-selection")
    if isinstance(outcome, (int, np.integer)):
        bits = [(int(outcome) >> (len(qubits) - 1 - i)) & 1 for i in range(len(qubits))]
    else:
        bits = [int(b) for b in outcome]
        if len(bits) != len(qubits):
            raise DimensionError("outcome length must match the number of measured qubits")
    tensor = states.reshape((states.shape[0],) + (2,) * num_qubits)
    index: list = [slice(None)] * (num_qubits + 1)
    for qubit, bit in zip(qubits, bits):
        index[qubit + 1] = bit
    reduced = np.ascontiguousarray(tensor[tuple(index)]).reshape(states.shape[0], -1)
    total = np.linalg.norm(states, axis=1)
    if np.any(total == 0.0):
        raise ZeroDivisionError("cannot post-select a zero state")
    reduced_norms = np.linalg.norm(reduced, axis=1)
    probs = (reduced_norms / total) ** 2
    if renormalize:
        if np.any(reduced_norms == 0.0):
            raise ZeroDivisionError(
                "post-selection outcome has zero probability; cannot renormalise")
        reduced = reduced / reduced_norms[:, None]
    return reduced, probs


def expectation_value(state: Statevector, observable: np.ndarray) -> float:
    """Real part of ``<ψ|O|ψ>`` for a Hermitian observable ``O`` (normalised state)."""
    psi = state.normalized().data
    obs = np.asarray(observable, dtype=complex)
    if obs.shape != (psi.shape[0], psi.shape[0]):
        raise DimensionError("observable dimension does not match the state")
    return float(np.real(np.vdot(psi, obs @ psi)))
