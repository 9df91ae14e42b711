"""Tests for measurement, sampling and post-selection."""

import numpy as np
import pytest

from repro.exceptions import DimensionError
from repro.quantum import (
    QuantumCircuit,
    Statevector,
    apply_circuit,
    marginal_probabilities,
    postselect,
    probabilities,
    sample_counts,
)
from repro.quantum.measurement import expectation_value, postselect_batched


@pytest.fixture()
def bell_state():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.cx(0, 1)
    return apply_circuit(qc)


class TestProbabilities:
    def test_bell_probabilities(self, bell_state):
        np.testing.assert_allclose(probabilities(bell_state), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_zero_state_rejected(self):
        with pytest.raises(ZeroDivisionError):
            probabilities(Statevector(np.zeros(2)))

    def test_marginal_single_qubit(self, bell_state):
        np.testing.assert_allclose(marginal_probabilities(bell_state, [0]), [0.5, 0.5])

    def test_marginal_order_matters(self):
        # state |01>: qubit 0 = 0, qubit 1 = 1
        state = Statevector([0, 1, 0, 0])
        np.testing.assert_allclose(marginal_probabilities(state, [0, 1]), [0, 1, 0, 0])
        np.testing.assert_allclose(marginal_probabilities(state, [1, 0]), [0, 0, 1, 0])

    def test_marginal_duplicate_rejected(self, bell_state):
        with pytest.raises(DimensionError):
            marginal_probabilities(bell_state, [0, 0])


class TestSampling:
    def test_counts_sum_to_shots(self, bell_state):
        result = sample_counts(bell_state, 500, rng=0)
        assert sum(result.counts.values()) == 500
        assert result.shots == 500

    def test_only_correlated_outcomes(self, bell_state):
        result = sample_counts(bell_state, 200, rng=1)
        assert set(result.counts).issubset({0, 3})

    def test_frequencies_approximate_probabilities(self, bell_state):
        result = sample_counts(bell_state, 20_000, rng=2)
        freq = result.frequencies()
        assert freq[0] == pytest.approx(0.5, abs=0.02)

    def test_subset_of_qubits(self, bell_state):
        result = sample_counts(bell_state, 100, qubits=[1], rng=3)
        assert result.num_qubits == 1
        assert set(result.counts).issubset({0, 1})

    def test_most_frequent(self):
        state = Statevector([np.sqrt(0.9), np.sqrt(0.1)])
        result = sample_counts(state, 1000, rng=4)
        assert result.most_frequent() == 0

    def test_invalid_shots(self, bell_state):
        with pytest.raises(ValueError):
            sample_counts(bell_state, 0)


class TestPostselect:
    def test_bell_postselect_first_qubit(self, bell_state):
        reduced, prob = postselect(bell_state, [0], 0)
        assert prob == pytest.approx(0.5)
        np.testing.assert_allclose(reduced.data, [1.0, 0.0], atol=1e-12)

    def test_unnormalised_norm_encodes_probability(self, bell_state):
        reduced, prob = postselect(bell_state, [0], 1, renormalize=False)
        assert reduced.norm() ** 2 == pytest.approx(prob)

    def test_outcome_as_bit_sequence(self, bell_state):
        reduced, prob = postselect(bell_state, [0, 1], [1, 1])
        assert prob == pytest.approx(0.5)

    def test_impossible_outcome_raises(self, bell_state):
        with pytest.raises(ZeroDivisionError):
            postselect(bell_state, [0, 1], [0, 1])

    def test_outcome_length_mismatch(self, bell_state):
        with pytest.raises(DimensionError):
            postselect(bell_state, [0], [1, 0])

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("qubits, outcome", [
        ([0], 1), ([2, 0], [1, 0]), ([1], 0), ([0, 1, 2], 5), ([2, 1, 0], [0, 1, 1]),
    ], ids=["one", "two-reordered", "middle", "all", "all-bits"])
    def test_single_matches_batched(self, qubits, outcome, renormalize):
        rng = np.random.default_rng(3)
        states = rng.standard_normal((4, 8)) + 1j * rng.standard_normal((4, 8))
        reduced, probs = postselect_batched(states, qubits, outcome,
                                            renormalize=renormalize)
        assert reduced.shape == (4, 2 ** (3 - len(qubits)))
        for i, row in enumerate(states):
            single, prob = postselect(Statevector(row), qubits, outcome,
                                      renormalize=renormalize)
            assert prob == pytest.approx(probs[i], rel=1e-14)
            if len(qubits) == 3:
                # every qubit measured: a 1-qubit register [amplitude, 0]
                assert single.num_qubits == 1 and single.data[1] == 0.0
                np.testing.assert_allclose(single.data[:1], reduced[i],
                                           rtol=1e-14)
            else:
                np.testing.assert_allclose(single.data, reduced[i], rtol=1e-14)

    def test_zero_state_and_zero_probability_raise_in_both_forms(self):
        zero = np.zeros((1, 4), dtype=complex)
        with pytest.raises(ZeroDivisionError):
            postselect(Statevector(zero[0]), [0], 0)
        with pytest.raises(ZeroDivisionError):
            postselect_batched(np.vstack([np.ones(4), zero[0]]), [0], 0)
        basis = np.eye(4, dtype=complex)[:1]        # |00>: outcome 1 impossible
        with pytest.raises(ZeroDivisionError):
            postselect(Statevector(basis[0]), [0], 1)
        with pytest.raises(ZeroDivisionError):
            postselect_batched(basis, [0], 1)
        single, prob = postselect(Statevector(basis[0]), [0], 1,
                                  renormalize=False)
        assert prob == 0.0 and single.norm() == 0.0


class TestExpectationValue:
    def test_z_expectation(self):
        plus = Statevector([1.0, 1.0])
        z = np.diag([1.0, -1.0])
        assert expectation_value(plus, z) == pytest.approx(0.0, abs=1e-12)
        assert expectation_value(Statevector([1.0, 0.0]), z) == pytest.approx(1.0)

    def test_dimension_check(self):
        with pytest.raises(DimensionError):
            expectation_value(Statevector([1.0, 0.0]), np.eye(4))
