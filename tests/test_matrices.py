import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import random_system
from kronspec.kronsum import build_discrete_gram
from kronspec.matrices import (
    SystemSpec,
    as_complex_matrix,
    is_hermitian,
    unvec,
    vec,
)


def square_complex(max_d=4, bound=10.0):
    return st.integers(1, max_d).flatmap(
        lambda d: arrays(
            np.float64,
            (2, d, d),
            elements=st.floats(-bound, bound, allow_nan=False),
        ).map(lambda parts: parts[0] + 1j * parts[1])
    )


class TestVec:
    def test_column_stacking_order(self):
        assert np.array_equal(vec([[1, 2], [3, 4]]), [1, 3, 2, 4])

    def test_identity(self):
        assert np.array_equal(vec(np.eye(2)), [1, 0, 0, 1])

    def test_index_formula_3x3(self):
        # entry (i, j) must land at position (j-1)*d + i, 1-based
        d = 3
        x = np.array([[10 * i + j for j in range(1, d + 1)] for i in range(1, d + 1)])
        expected = np.zeros(d * d, dtype=complex)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                expected[(j - 1) * d + (i - 1)] = 10 * i + j
        assert np.array_equal(vec(x), expected)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            vec(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            vec([[1.0, np.nan], [0.0, 1.0]])


class TestUnvec:
    def test_inverse_of_vec_example(self):
        assert np.array_equal(unvec([1, 3, 2, 4], 2), [[1, 2], [3, 4]])

    def test_zero_vector(self):
        assert np.array_equal(unvec(np.zeros(9), 3), np.zeros((3, 3)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            unvec(np.zeros(5), 2)

    def test_round_trip_random_4x4(self, crandn):
        for _ in range(100):
            x = crandn(4, 4)
            assert np.array_equal(unvec(vec(x), 4), x)

    @given(square_complex())
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, x):
        d = x.shape[0]
        assert np.array_equal(unvec(vec(x), d), x)
        v = vec(x)
        assert np.array_equal(vec(unvec(v, d)), v)


class TestKron:
    # the vec convention that ties D and C to the second-moment maps
    def test_vec_matrix_identity(self, crandn):
        # vec(B X A^T) == kron(A, B) vec(X)
        for d in range(2, 7):
            a, b, x = crandn(d, d), crandn(d, d), crandn(d, d)
            lhs = vec(b @ x @ a.T)
            rhs = np.kron(a, b) @ vec(x)
            scale = max(np.max(np.abs(lhs)), 1.0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale

    def test_vec_of_outer_product(self, crandn):
        # vec(u v*) == conj(v) kron u
        u, v = crandn(4), crandn(4)
        lhs = vec(np.outer(u, v.conj()))
        rhs = np.kron(v.conj(), u)
        assert np.allclose(lhs, rhs, atol=1e-14)


class TestIsHermitian:
    def test_identity_zero_tolerance(self):
        assert is_hermitian(np.eye(3), tol=0.0)

    def test_skew_symmetric_fails(self):
        assert not is_hermitian([[0, 1], [-1, 0]], tol=1e-12)

    def test_gram_matrices_pass(self, rng):
        for _ in range(20):
            spec = random_system(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)))
            assert is_hermitian(build_discrete_gram(spec), tol=1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            is_hermitian(np.ones((2, 3)))

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            is_hermitian(np.eye(2), tol=-1.0)


class TestSystemSpec:
    def test_dimensions_exposed(self, crandn):
        spec = SystemSpec(crandn(3, 3), (crandn(3, 3), crandn(3, 3)))
        assert spec.d == 3 and spec.m == 2

    def test_noise_shape_mismatch(self, crandn):
        with pytest.raises(ValueError):
            SystemSpec(crandn(3, 3), (crandn(2, 2),))

    def test_nonsquare_drift(self, crandn):
        with pytest.raises(ValueError):
            SystemSpec(crandn(2, 3))

    def test_nonfinite_rejected(self):
        a = np.eye(2, dtype=complex)
        a[0, 0] = np.inf
        with pytest.raises(ValueError):
            SystemSpec(a)

    def test_no_dimension_cap(self):
        # the dense ceiling (d = 64) guards D and C, not the system itself
        spec = SystemSpec(np.eye(65), (np.eye(65),))
        assert spec.d == 65 and spec.m == 1

    def test_m_zero_allowed(self, crandn):
        assert SystemSpec(crandn(2, 2)).m == 0


def test_as_complex_matrix_requires_2d():
    with pytest.raises(ValueError):
        as_complex_matrix(np.zeros(4))
