"""Tests for every block-encoding construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from repro.blockencoding import (
    CirculantBlockEncoding,
    DilationBlockEncoding,
    FABLEBlockEncoding,
    LCUBlockEncoding,
    TridiagonalBlockEncoding,
    block_encoding_error,
    build_block_encoding,
    decrement_circuit,
    increment_circuit,
    verify_block_encoding,
)
from repro.exceptions import BlockEncodingError
from repro.linalg import poisson_1d_matrix, random_matrix_with_condition_number
from repro.quantum import circuit_unitary


class TestDilation:
    def test_roundtrip_random(self, rng):
        a = rng.standard_normal((8, 8))
        be = DilationBlockEncoding(a)
        verify_block_encoding(be)
        assert be.num_ancillas == 1
        assert be.alpha == pytest.approx(np.linalg.norm(a, 2))

    def test_complex_matrix(self, rng):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        verify_block_encoding(DilationBlockEncoding(a))

    def test_spectral_margin(self, rng):
        a = rng.standard_normal((4, 4))
        be = DilationBlockEncoding(a, spectral_margin=1.5)
        verify_block_encoding(be)
        assert be.alpha == pytest.approx(1.5 * np.linalg.norm(a, 2))

    def test_margin_below_one_rejected(self, rng):
        with pytest.raises(BlockEncodingError):
            DilationBlockEncoding(rng.standard_normal((4, 4)), spectral_margin=0.5)

    def test_zero_matrix_rejected(self):
        with pytest.raises(BlockEncodingError):
            DilationBlockEncoding(np.zeros((4, 4)))

    def test_circuit_matches_unitary(self, rng):
        be = DilationBlockEncoding(rng.standard_normal((4, 4)))
        np.testing.assert_allclose(circuit_unitary(be.circuit()), be.unitary(), atol=1e-12)

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_property_block_is_contraction(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4))
        be = DilationBlockEncoding(a)
        block = be.encoded_block()
        assert np.linalg.norm(block, 2) <= 1.0 + 1e-10


class TestLCU:
    def test_roundtrip_random(self, rng):
        a = rng.standard_normal((4, 4))
        be = LCUBlockEncoding(a)
        verify_block_encoding(be)
        assert be.alpha == pytest.approx(sum(abs(t.coefficient) for t in be.terms))

    def test_circuit_and_fast_unitary_agree(self, rng):
        a = rng.standard_normal((4, 4))
        be = LCUBlockEncoding(a)
        np.testing.assert_allclose(circuit_unitary(be.circuit()), be.unitary(), atol=1e-10)

    def test_contraction_matches_triple_product(self, rng):
        # reference: (P ⊗ I)† · blockdiag(S_j) · (P ⊗ I), unused S_j = I;
        # a real symmetric 4x4 has 10 Pauli terms, some negative
        a = rng.standard_normal((4, 4))
        be = LCUBlockEncoding(a + a.T)
        prepare, select = be._prepare_and_select()
        assert be.num_terms < select.shape[0]      # padded identity blocks covered
        prep_full = np.kron(prepare, np.eye(4))
        reference = prep_full.conj().T @ block_diag(*select) @ prep_full
        np.testing.assert_allclose(be.unitary(), reference, rtol=0, atol=1e-12)
        np.testing.assert_allclose(be.encoded_block(), reference[:4, :4], rtol=0, atol=1e-12)

    def test_complex_coefficients_handled(self, rng):
        a = rng.standard_normal((4, 4))
        a[0, 1] += 0.7           # break symmetry so Y terms appear
        verify_block_encoding(LCUBlockEncoding(a))

    def test_alpha_at_least_spectral_norm(self, rng):
        a = rng.standard_normal((8, 8))
        be = LCUBlockEncoding(a)
        assert be.alpha >= np.linalg.norm(a, 2) - 1e-10

    def test_structured_matrix_few_ancillas(self):
        be = LCUBlockEncoding(poisson_1d_matrix(8, scaled=False))
        assert be.num_ancillas <= 4          # few Pauli terms -> small PREPARE register
        verify_block_encoding(be)

    def test_empty_decomposition_rejected(self):
        with pytest.raises(BlockEncodingError):
            LCUBlockEncoding(np.zeros((4, 4)))


class TestFABLE:
    def test_roundtrip_random(self, rng):
        a = rng.standard_normal((4, 4))
        be = FABLEBlockEncoding(a)
        verify_block_encoding(be)
        assert be.num_ancillas == 1 + 2     # flag + row register
        assert be.alpha == pytest.approx(4 * np.max(np.abs(a)))

    def test_decomposed_oracle(self, rng):
        a = rng.standard_normal((2, 2))
        dense = FABLEBlockEncoding(a, decompose=False)
        decomposed = FABLEBlockEncoding(a, decompose=True)
        np.testing.assert_allclose(circuit_unitary(dense.circuit()),
                                   circuit_unitary(decomposed.circuit()), atol=1e-10)

    def test_compression_introduces_bounded_error(self, rng):
        a = rng.standard_normal((8, 8))
        a[np.abs(a) < 0.3] *= 1e-4           # many negligible entries
        exact = FABLEBlockEncoding(a)
        compressed = FABLEBlockEncoding(a, compression_threshold=1e-3)
        assert block_encoding_error(exact) < 1e-10
        error = block_encoding_error(compressed)
        assert 0 < error < 1e-2 * np.max(np.abs(a)) * 8

    def test_complex_rejected(self, rng):
        with pytest.raises(BlockEncodingError):
            FABLEBlockEncoding(rng.standard_normal((4, 4)) * 1j)

    def test_invalid_threshold(self, rng):
        with pytest.raises(BlockEncodingError):
            FABLEBlockEncoding(rng.standard_normal((4, 4)), compression_threshold=1.5)


class TestShiftCircuits:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_increment_is_cyclic_shift(self, n):
        unitary = circuit_unitary(increment_circuit(n))
        dim = 2**n
        expected = np.roll(np.eye(dim), 1, axis=0)
        np.testing.assert_allclose(unitary, expected, atol=1e-12)

    def test_decrement_is_inverse(self):
        n = 3
        inc = circuit_unitary(increment_circuit(n))
        dec = circuit_unitary(decrement_circuit(n))
        np.testing.assert_allclose(inc @ dec, np.eye(2**n), atol=1e-12)


class TestBandedEncodings:
    def test_circulant_encodes_periodic_matrix(self):
        be = CirculantBlockEncoding(3)
        verify_block_encoding(be)
        assert be.alpha == pytest.approx(4.0)
        # corners are populated (periodic boundary)
        assert be.matrix_encoded[0, -1] == pytest.approx(-1.0)

    def test_circulant_positive_offdiagonal(self):
        be = CirculantBlockEncoding(2, diagonal=2.0, off_diagonal=0.5)
        verify_block_encoding(be)

    def test_tridiagonal_matches_poisson_stencil(self):
        be = TridiagonalBlockEncoding(3)
        verify_block_encoding(be)
        np.testing.assert_allclose(be.matrix_encoded, poisson_1d_matrix(8, scaled=False),
                                   atol=1e-12)

    def test_tridiagonal_scale_only_changes_alpha(self):
        plain = TridiagonalBlockEncoding(2)
        scaled = TridiagonalBlockEncoding(2, scale=81.0)
        assert scaled.alpha == pytest.approx(81.0 * plain.alpha)
        verify_block_encoding(scaled)


class TestFactory:
    def test_known_methods(self, rng):
        a = rng.standard_normal((4, 4))
        assert build_block_encoding(a, "dilation").name == "dilation"
        assert build_block_encoding(a, "lcu").name == "lcu"
        assert build_block_encoding(a, "fable").name == "fable"

    def test_tridiagonal_method(self):
        a = poisson_1d_matrix(8, scaled=False)
        be = build_block_encoding(a, "tridiagonal")
        assert be.name == "tridiagonal"
        verify_block_encoding(be)

    def test_tridiagonal_rejects_dense(self, rng):
        with pytest.raises(BlockEncodingError):
            build_block_encoding(rng.standard_normal((4, 4)), "tridiagonal")

    def test_unknown_method(self, rng):
        with pytest.raises(BlockEncodingError):
            build_block_encoding(rng.standard_normal((4, 4)), "magic")
