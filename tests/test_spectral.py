import numpy as np
import pytest

from kronspec.cli import demo_system
from kronspec.kronsum import build_continuous_sum, build_discrete_sum
from kronspec.spectral import (
    DENSE_CEILING,
    check_dense_rows,
    eigenvalues,
    hermitian_extremes,
    summarize,
)


def _assert_multiset_close(got, want, tol):
    got = list(np.asarray(got))
    assert len(got) == len(want)
    for w in want:
        gaps = [abs(g - w) for g in got]
        best = int(np.argmin(gaps))
        assert gaps[best] <= tol
        got.pop(best)


class TestEigenvalues:
    def test_diagonal(self):
        w = eigenvalues(np.diag([1.0, 2.0 + 1.0j]))
        assert np.allclose(w, [1.0, 2.0 + 1.0j])

    def test_rotation_generator(self):
        w = eigenvalues([[0.0, 1.0], [-1.0, 0.0]])
        _assert_multiset_close(w, [1.0j, -1.0j], 1e-12)

    def test_kron_eigenvalues_are_pairwise_products(self, crandn):
        a, b = crandn(3, 3), crandn(3, 3)
        got = eigenvalues(np.kron(a, b))
        brute = [la * mu for la in np.linalg.eigvals(a) for mu in np.linalg.eigvals(b)]
        _assert_multiset_close(got, brute, 1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigenvalues(np.ones((2, 3)))

    def test_deterministic_ordering(self, crandn):
        a = crandn(5, 5)
        assert np.array_equal(eigenvalues(a), eigenvalues(a))


class TestHermitianExtremes:
    def test_demo_gram_values(self):
        assert hermitian_extremes(np.diag([4.25, 0.49])) == (0.49, 4.25)

    def test_scalar_matrix(self):
        assert hermitian_extremes(2.0 * np.eye(3)) == (2.0, 2.0)

    def test_cross_solver_agreement(self, crandn):
        g = crandn(5, 5)
        h = g + g.conj().T
        lo, hi = hermitian_extremes(h)
        w = eigenvalues(h)
        assert np.max(np.abs(w.imag)) <= 1e-9
        assert abs(lo - np.min(w.real)) <= 1e-9
        assert abs(hi - np.max(w.real)) <= 1e-9

    def test_rejects_non_hermitian(self, crandn):
        with pytest.raises(ValueError):
            hermitian_extremes(crandn(3, 3))


def test_dense_ceiling_is_d64_squared():
    assert DENSE_CEILING == 64 ** 2
    check_dense_rows(DENSE_CEILING, "D")
    with pytest.raises(ValueError, match="D has 4097 rows, over the dense ceiling of 4096"):
        check_dense_rows(DENSE_CEILING + 1, "D")


class TestSummarize:
    def test_demo_discrete_radius(self):
        d = build_discrete_sum(demo_system(0.5, 0.7, 2.0))
        assert abs(summarize(d).radius - 0.49) <= 1e-10

    def test_demo_continuous_abscissa(self):
        c = build_continuous_sum(demo_system(0.5, 0.7, 2.0))
        assert abs(summarize(c).abscissa - 1.4) <= 1e-10

    def test_zero_matrix(self):
        s = summarize(np.zeros((3, 3)))
        assert s.radius == 0.0 and s.abscissa == 0.0

    def test_scalar_ordering_invariants(self, crandn):
        for _ in range(25):
            s = summarize(crandn(4, 4))
            assert s.abscissa <= s.radius + 1e-12


class TestSpectralInvariants:
    def test_kronecker_sum_eigenvalues_are_pairwise_sums(self, crandn):
        a = crandn(3, 3)
        got = eigenvalues(np.kron(a, np.eye(3)) + np.kron(np.eye(3), a))
        w = np.linalg.eigvals(a)
        brute = [la + mu for la in w for mu in w]
        _assert_multiset_close(got, brute, 1e-8)
