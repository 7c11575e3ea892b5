import numpy as np
import pytest

from conftest import random_system, vec
from kronspec.kronsum import build_discrete_gram
from kronspec.matrices import (
    DEFAULT_TOL,
    SystemSpec,
    as_complex_matrix,
    is_hermitian,
)


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
        assert is_hermitian(np.eye(3))

    def test_tolerance_is_default_tol(self):
        # the one tolerance: an antisymmetric part of DEFAULT_TOL / 2 passes, 2 DEFAULT_TOL fails
        for gap, want in ((DEFAULT_TOL / 2, True), (2 * DEFAULT_TOL, False)):
            assert is_hermitian([[1.0, gap], [0.0, 1.0]]) is want

    def test_skew_symmetric_fails(self):
        assert not is_hermitian([[0, 1], [-1, 0]])

    def test_gram_matrices_pass(self, rng):
        for _ in range(20):
            spec = random_system(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)))
            assert is_hermitian(build_discrete_gram(spec))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            is_hermitian(np.ones((2, 3)))


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
