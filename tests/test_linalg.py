import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmfsep.linalg import as_complex_matrix, as_real, complex_matmul_real, frobenius_norm_sq


class TestFrobeniusNormSq:
    def test_zero(self):
        assert frobenius_norm_sq([[0.0]]) == 0.0

    def test_single_complex_entry(self):
        assert frobenius_norm_sq([[3 - 4j]]) == pytest.approx(25.0, abs=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        expect = sum(abs(v) ** 2 for v in a.ravel())
        assert frobenius_norm_sq(a) == pytest.approx(expect, rel=1e-12)

    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_real_imag_decomposition(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        total = frobenius_norm_sq(a)
        parts = frobenius_norm_sq(a.real) + frobenius_norm_sq(a.imag)
        assert total == pytest.approx(parts, rel=1e-12)


class TestComplexMatmulReal:
    def test_scalar(self):
        got = complex_matmul_real([[1 + 1j]], [[2.0]])
        assert got[0, 0] == 2 + 2j

    def test_identity_lifts_real(self):
        h = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = complex_matmul_real(np.eye(2), h)
        assert np.array_equal(got, h.astype(complex))

    def test_matches_split_parts_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = rng.standard_normal((3, 3))
        got = complex_matmul_real(x, h)
        np.testing.assert_allclose(got.real, x.real @ h, atol=1e-12)
        np.testing.assert_allclose(got.imag, x.imag @ h, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            complex_matmul_real(np.ones((2, 3), dtype=complex), np.ones((2, 2)))

    def test_rejects_vector_weights(self):
        with pytest.raises(ValueError, match="2-D"):
            complex_matmul_real(np.ones((2, 2), dtype=complex), [1.0, 2.0])

    def test_rejects_complex_weights(self):
        with pytest.raises(ValueError, match="imaginary"):
            complex_matmul_real(np.ones((2, 2), dtype=complex), [[1.0, 2j], [0.0, 1.0]])

    def test_rejects_empty_weights(self):
        with pytest.raises(ValueError, match="at least 1x1"):
            complex_matmul_real(np.ones((2, 0), dtype=complex), np.zeros((0, 3)))


class TestConversions:
    def test_as_complex_rejects_3d(self):
        with pytest.raises(ValueError, match="2-D"):
            as_complex_matrix(np.zeros((2, 2, 2)))


class TestAsReal:
    def test_casts_real_input(self):
        got = as_real([[1, 2], [3, 4]])
        assert got.dtype == np.float64 and np.array_equal(got, [[1.0, 2.0], [3.0, 4.0]])

    def test_float64_input_is_not_copied(self):
        a = np.ones((2, 3))
        assert as_real(a) is a

    def test_accepts_zero_imaginary_parts(self):
        got = as_real(np.array([1 + 0j, -2 + 0j]))
        assert got.dtype == np.float64 and np.array_equal(got, [1.0, -2.0])

    @pytest.mark.parametrize("bad", [2j, -1e-300j, complex(0, np.nan)])
    def test_rejects_nonzero_imaginary_part(self, bad):
        with pytest.raises(ValueError, match="imaginary"):
            as_real(np.array([1.0, 3.0 + bad]))
