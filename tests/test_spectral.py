import numpy as np
import pytest

from kronspec.cli import demo_system
from kronspec.kronsum import build_continuous_sum, build_discrete_sum
from kronspec.spectral import (
    eigenvalues,
    exponential_growth_estimate,
    hermitian_extremes,
    power_growth_estimate,
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


class TestPowerGrowth:
    def test_normal_matrix_is_exact(self):
        est = power_growth_estimate(np.diag([0.5, 0.7]), 20)
        assert np.allclose(est, 0.7, atol=1e-12)

    def test_jordan_block_decreases_toward_one(self):
        est = power_growth_estimate([[1.0, 1.0], [0.0, 1.0]], 30)
        assert np.all(est > 1.0)
        assert np.all(np.diff(est) < 0)
        assert est[-1] < 1.2

    def test_demo_sum_tends_to_radius(self):
        d = build_discrete_sum(demo_system(0.5, 0.7, 2.0))
        est = power_growth_estimate(d, 64)
        assert abs(est[-1] - 0.49) <= 0.05 * 0.49

    def test_overflow_reports_step(self):
        with pytest.raises(OverflowError, match="step"):
            power_growth_estimate(1e3 * np.eye(2), 200)


class TestExponentialGrowth:
    def test_normal_matrix_is_exact(self):
        est = exponential_growth_estimate(np.diag([-1.0, 2.0]), [1.0, 2.0, 4.0])
        assert np.allclose(est, 2.0, atol=1e-9)

    def test_nilpotent_decreases_toward_zero(self):
        est = exponential_growth_estimate([[0.0, 1.0], [0.0, 0.0]], [1.0, 2.0, 4.0, 8.0, 16.0])
        assert np.all(est > 0.0)
        assert np.all(np.diff(est) < 0)
        assert est[-1] < 0.3

    def test_demo_sum_tends_to_abscissa(self):
        c = build_continuous_sum(demo_system(0.5, 0.7, 2.0))
        est = exponential_growth_estimate(c, [5.0, 10.0, 20.0, 40.0])
        assert np.all(np.diff(est) < 0)
        assert abs(est[-1] - 1.4) <= 0.1 * 1.4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            exponential_growth_estimate(np.eye(2), [0.0, 1.0])
        with pytest.raises(ValueError):
            exponential_growth_estimate(np.eye(2), [2.0, 1.0])


class TestSpectralInvariants:
    def test_kronecker_sum_eigenvalues_are_pairwise_sums(self, crandn):
        a = crandn(3, 3)
        got = eigenvalues(np.kron(a, np.eye(3)) + np.kron(np.eye(3), a))
        w = np.linalg.eigvals(a)
        brute = [la + mu for la in w for mu in w]
        _assert_multiset_close(got, brute, 1e-8)

    def test_power_growth_near_radius_for_well_conditioned(self, rng):
        # eigenvector basis kept near-orthogonal so |A^n|^(1/n) converges fast
        for d in (2, 4, 8):
            lam = 0.5 + rng.uniform(0.0, 1.0, d) * np.exp(1j * rng.uniform(0, 2 * np.pi, d))
            basis = np.eye(d) + (0.3 / np.sqrt(d)) * (
                rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            ) / np.sqrt(2.0)
            a = basis @ np.diag(lam) @ np.linalg.inv(basis)
            est = power_growth_estimate(a, 64)
            radius = summarize(a).radius
            assert abs(est[-1] - radius) <= 0.05 * radius
