import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ortho_group

from conftest import random_system
from kronspec import evolution
from kronspec.cli import demo_system
from kronspec.evolution import (
    discrete_covariance,
    matrix_exponential,
    max_relative_discrepancy,
    propagate_continuous,
    propagate_discrete,
    second_moment_bounds_continuous,
    second_moment_bounds_discrete,
    _check_moment_chain,
    _ESTIMATE_ABOVE,
    _STEP_EXTRA_BYTES,
    _power_norms,
    _shift,
)
from kronspec.kronsum import (
    adjoint_moment_map,
    build_continuous_sum,
    build_discrete_sum,
    real_sum,
    second_moment_map,
)
from kronspec.matrices import (
    ConsistencyError,
    SystemSpec,
    real_unvec,
    real_vec,
    vec,
)


def _fail(*args, **kwargs):
    raise AssertionError("work started before the budget check")


def _random_vec(rng, d):
    return (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)


def _criterion4_systems():
    """The 200 (system, u, v) triples of acceptance criterion 4, drawn the same way."""
    rng = np.random.default_rng(424242)
    for i in range(200):
        d = 2 + i % 4
        spec = random_system(rng, d, i % 4)
        yield spec, _random_vec(rng, d), _random_vec(rng, d)


class TestStepDiscrete:
    def test_pure_noise_identity(self):
        spec = SystemSpec(np.zeros((2, 2)), (np.eye(2),))
        assert np.allclose(second_moment_map(spec, "discrete")(np.eye(2)), np.eye(2), atol=1e-14)

    def test_demo_first_step_hand_expanded(self):
        a, b, s = 0.5, 0.7, 2.0
        spec = demo_system(a, b, s)
        v0 = np.outer([1.0, 0.0], [1.0, 0.0])
        phi = second_moment_map(spec, "discrete")
        assert np.allclose(phi(v0), np.diag([a * a, s * s]), atol=1e-14)

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_vectorized_form_matches(self, rng, crandn, mode, m):
        # the module's core oracle: vec(Phi(V)) == D vec(V), vec(L(V)) == C vec(V)
        build = build_discrete_sum if mode == "discrete" else build_continuous_sum
        for _ in range(10):
            spec = random_system(rng, 3, m)
            v = crandn(3, 3)
            image = second_moment_map(spec, mode)(v)
            lhs = vec(image)
            rhs = build(spec) @ vec(v)
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.max(np.abs(lhs))))

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_adjoint_form_matches(self, rng, crandn, mode, m):
        # vec(Phi*(V)) == D* vec(V), vec(L*(V)) == C* vec(V)
        build = build_discrete_sum if mode == "discrete" else build_continuous_sum
        for _ in range(10):
            spec = random_system(rng, 3, m)
            v = crandn(3, 3)
            lhs = vec(adjoint_moment_map(spec, mode)(v))
            rhs = build(spec).conj().T @ vec(v)
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.max(np.abs(lhs))))


    @pytest.mark.parametrize("d", [1, 3, 8])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_maps_apply_to_a_stack_as_to_each_matrix(self, rng, crandn, mode, d):
        # the norm estimator applies the maps to stacks of matrices at once
        spec = random_system(rng, d, 2)
        stack = crandn(3, d, d)
        for build in (second_moment_map, adjoint_moment_map):
            apply = build(spec, mode)
            image = apply(stack)
            for k in range(3):
                assert np.array_equal(image[k], apply(stack[k]))

    @pytest.mark.parametrize("d", [2, 5, 16])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_noise_free_map_has_the_bits_of_the_stacked_form(self, rng, crandn, mode, d):
        # m = 0 takes plain products, A (V A*) or A V + V A*; the stacked
        # product pair they replace, written out, gives the same bits
        spec = random_system(rng, d, 0)
        left = np.concatenate((spec.a,), axis=1)
        right = np.stack([spec.a.conj().T])
        apply = second_moment_map(spec, mode)
        for v in (crandn(d, d), crandn(3, d, d)):
            w = v[..., None, :, :] @ right
            if mode == "discrete":
                want = left @ w.reshape(*w.shape[:-3], -1, d)
            else:
                vah = w[..., 0, :, :].copy()
                w[..., 0, :, :] = v
                want = left @ w.reshape(*w.shape[:-3], -1, d)
                want += vah
            assert np.array_equal(apply(v), want)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_stacked_products_match_the_dense_sum(self, rng, crandn, mode, m):
        # one stacked product pair per application, on a matrix and on a stack
        build = build_discrete_sum if mode == "discrete" else build_continuous_sum
        spec = random_system(rng, 4, m)
        dense = build(spec)
        apply = second_moment_map(spec, mode)
        stack = crandn(3, 4, 4)
        images = apply(stack)
        assert images.shape == stack.shape
        for v, image in [(stack[0], apply(stack[0])), *zip(stack, images)]:
            want = dense @ vec(v)
            assert np.max(np.abs(vec(image) - want)) <= 1e-13 * np.max(np.abs(want))


class TestPropagateDiscrete:
    def test_zero_steps_echoes_initial_outer(self, rng):
        spec = random_system(rng, 3, 1)
        u, v = _random_vec(rng, 3), _random_vec(rng, 3)
        traj = propagate_discrete(spec, u, v, 0)
        assert traj.index == (0,)
        assert np.allclose(traj.values[0], np.outer(u, v.conj()), atol=1e-14)
        assert traj.second_moments is None

    def test_demo_routes_agree(self):
        spec = demo_system(0.5, 0.7, 2.0)
        u = np.array([1.0, 0.0])
        direct = propagate_discrete(spec, u, u, 3, "direct")
        kronecker = propagate_discrete(spec, u, u, 3, "kronecker")
        assert max_relative_discrepancy(direct, kronecker) <= 1e-8
        assert direct.second_moments is not None
        assert direct.second_moments[0] == pytest.approx(1.0)

    def test_random_routes_agree(self, rng):
        for _ in range(10):
            spec = random_system(rng, 3, 2)
            u, v = _random_vec(rng, 3), _random_vec(rng, 3)
            direct = propagate_discrete(spec, u, v, 10, "direct")
            kronecker = propagate_discrete(spec, u, v, 10, "kronecker")
            assert max_relative_discrepancy(direct, kronecker) <= 1e-8

    def test_second_moments_are_traces(self, rng):
        spec = random_system(rng, 3, 1)
        u = _random_vec(rng, 3)
        traj = propagate_discrete(spec, u, u, 5)
        for v, r in zip(traj.values, traj.second_moments):
            assert r == pytest.approx(float(np.trace(v).real), abs=1e-8)

    def test_overflow_reports_step(self):
        spec = SystemSpec(10.0 * np.eye(2))
        with pytest.raises(OverflowError, match="step"):
            propagate_discrete(spec, [1.0, 0.0], [1.0, 0.0], 200)

    def test_route_validation(self, rng):
        spec = random_system(rng, 2, 0)
        with pytest.raises(ValueError):
            propagate_discrete(spec, [1, 0], [1, 0], 1, route="ode")

    @pytest.mark.parametrize("route", ["direct", "kronecker"])
    @pytest.mark.parametrize("n", [10**12, 1_000_000])  # 1e6 + 1 matrices of 4 entries
    def test_trajectory_budget_checked_before_any_step(self, route, n):
        with pytest.raises(ValueError, match="budget"):
            propagate_discrete(SystemSpec(0.5 * np.eye(2)), [1, 0], [1, 0], n, route)

    @pytest.mark.parametrize("route", ["direct", "kronecker"])
    def test_trajectory_holds_what_the_budget_charges(self, route):
        # at d = 1 per-object overhead dominates: each step must cost no more
        # traced bytes than the budget charges it
        spec = SystemSpec(np.array([[0.5]]), (np.array([[0.5]]),))
        n = 20_000
        tracemalloc.start()
        try:
            traj = propagate_discrete(spec, [1.0], [1.0], n, route)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj.values) == len(traj.second_moments) == len(traj.index) == n + 1
        assert peak / (n + 1) <= 16 + _STEP_EXTRA_BYTES

    def test_final_covariance_is_last_of_trajectory(self, rng):
        for i in range(8):
            spec = random_system(rng, 2 + i % 3, i % 3)
            u, v = _random_vec(rng, spec.d), _random_vec(rng, spec.d)
            last = propagate_discrete(spec, u, v, 6, "direct").values[-1]
            assert np.array_equal(discrete_covariance(spec, u, v, 6), last)

    def test_final_covariance_has_no_trajectory_budget(self):
        spec = SystemSpec(0.9 * np.eye(64))
        u = np.eye(64)[0]
        with pytest.raises(ValueError, match="budget"):
            propagate_discrete(spec, u, u, 1000)
        got = discrete_covariance(spec, u, u, 1000)
        assert got[0, 0] == pytest.approx(0.81 ** 1000, rel=1e-10)
        assert np.count_nonzero(got) == 1


class TestMatrixExponential:
    def test_zero_time_gives_identity(self, crandn):
        assert np.array_equal(matrix_exponential(crandn(3, 3), 0.0), np.eye(3))

    def test_diagonal_matrix(self):
        a = np.diag([0.3 - 1.0j, -2.0 + 0.5j])
        for t in (0.1, 1.0, 7.3):
            assert np.allclose(
                matrix_exponential(a, t), np.diag(np.exp(t * np.diag(a))), rtol=1e-12
            )

    def test_derivative_finite_difference_oracle(self, crandn):
        a = crandn(4, 4)
        t, h = 0.7, 1e-4
        fd = (matrix_exponential(a, t + h) - matrix_exponential(a, t - h)) / (2 * h)
        exact = a @ matrix_exponential(a, t)
        assert np.max(np.abs(fd - exact)) <= 1e-6 * np.max(np.abs(exact))

    def test_semigroup_property(self, crandn):
        a = crandn(4, 4)
        lhs = matrix_exponential(a, 0.9) @ matrix_exponential(a, 1.4)
        rhs = matrix_exponential(a, 2.3)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8 * max(1.0, np.max(np.abs(rhs)))

    def test_against_scipy(self, crandn):
        # the 1-norms of t*a run from 6e-4 to 11: unscaled inputs in every band
        # where lower Pade degrees would do, and scaled ones past theta_13
        for n in (1, 2, 5, 9):
            a = crandn(n, n)
            for t in (1e-3, 0.05, 0.3, 1.0):
                mine = matrix_exponential(a, t)
                ref = scipy.linalg.expm(t * a)
                assert np.max(np.abs(mine - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_large_argument_accuracy(self):
        # norm far beyond the top Pade threshold exercises scaling and squaring
        a = np.array([[0.0, 100.0], [-100.0, 0.0]])
        e = matrix_exponential(a, 1.0)
        expected = np.array(
            [[np.cos(100.0), np.sin(100.0)], [-np.sin(100.0), np.cos(100.0)]]
        )
        assert np.max(np.abs(e - expected)) <= 1e-9

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            matrix_exponential(np.diag([1000.0, 0.0]), 1.0)

    def test_real_input_stays_real(self, crandn):
        # float64 in, float64 out, in real arithmetic; the same matrix as
        # complex128 is computed in complex arithmetic, with exact zero
        # imaginary parts, and agrees to roundoff
        for n, t in ((1, 0.3), (4, 0.7), (9, 3.0)):
            a = crandn(n, n).real
            real = matrix_exponential(a, t)
            assert real.dtype == np.float64
            cplx = matrix_exponential(a.astype(np.complex128), t)
            assert cplx.dtype == np.complex128
            assert not np.any(cplx.imag)
            assert np.max(np.abs(real - cplx.real)) <= 1e-13 * np.max(np.abs(real))
            ref = scipy.linalg.expm(t * a)
            assert np.max(np.abs(real - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert matrix_exponential(np.zeros((2, 2)), 1.0).dtype == np.float64
        assert matrix_exponential([[1, 2], [3, 4]], 0.1).dtype == np.float64
        assert matrix_exponential(crandn(3, 3), 0.0).dtype == np.complex128


class TestPropagateContinuous:
    def test_time_zero_echoes_initial_outer(self, rng):
        spec = random_system(rng, 2, 1)
        u, v = _random_vec(rng, 2), _random_vec(rng, 2)
        traj = propagate_continuous(spec, u, v, [0.0])
        assert np.allclose(traj.values[0], np.outer(u, v.conj()), atol=1e-12)

    def test_pure_noise_grows_exponentially(self):
        # V' = V when the only matrix is the identity noise channel
        spec = SystemSpec(np.zeros((2, 2)), (np.eye(2),))
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for route in ("ode", "kronecker"):
            traj = propagate_continuous(spec, u, u, [0.5, 1.0], route)
            v0 = np.outer(u, u.conj())
            assert np.allclose(traj.values[0], np.exp(0.5) * v0, rtol=1e-7)
            assert np.allclose(traj.values[1], np.exp(1.0) * v0, rtol=1e-7)

    def test_demo_routes_agree(self):
        spec = demo_system(0.5, 0.7, 2.0)
        u = np.array([1.0, 0.0])
        ode = propagate_continuous(spec, u, u, [1.0], "ode")
        kron_route = propagate_continuous(spec, u, u, [1.0], "kronecker")
        assert max_relative_discrepancy(ode, kron_route) <= 1e-6

    def test_random_routes_agree(self, rng):
        for _ in range(5):
            spec = random_system(rng, 3, 2)
            u, v = _random_vec(rng, 3), _random_vec(rng, 3)
            ode = propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
            kron_route = propagate_continuous(spec, u, v, [0.25, 1.0], "kronecker")
            assert max_relative_discrepancy(ode, kron_route) <= 1e-6

    def test_grid_validation(self, rng):
        spec = random_system(rng, 2, 0)
        u = _random_vec(rng, 2)
        with pytest.raises(ValueError):
            propagate_continuous(spec, u, u, [])
        with pytest.raises(ValueError):
            propagate_continuous(spec, u, u, [1.0, 0.5])
        with pytest.raises(ValueError):
            propagate_continuous(spec, u, u, [-1.0, 0.5])

    def test_route_validation(self, rng):
        spec = random_system(rng, 2, 0)
        with pytest.raises(ValueError):
            propagate_continuous(spec, [1, 0], [1, 0], [1.0], route="direct")

    def test_step_budget_stops_large_norm_system(self, monkeypatch):
        # mu = 0 and beta = 2e7 put t = 1 at 2e6 substeps of degree 55: refused
        # before any map is built
        spec = SystemSpec(np.array([[0.0, 1e7], [-1e7, 0.0]]))
        monkeypatch.setattr("kronspec.evolution.second_moment_map", _fail)
        with pytest.raises(RuntimeError, match="budget"):
            propagate_continuous(spec, [1, 0], [1, 0], [1.0], route="ode")

    def test_work_budget_counts_the_dimension(self, monkeypatch):
        # beta = 137 puts t = 100 at 1,383 substeps of degree 55, fewer than rot's
        # 2e6, but each term costs 6 products at d = 256: 7.8e12 multiply-adds,
        # hours of work
        rng = np.random.default_rng(1)
        d = 256
        spec = SystemSpec(rng.standard_normal((d, d)) / np.sqrt(d) - 1.2 * np.eye(d),
                          tuple(0.5 * rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(2)))
        monkeypatch.setattr("kronspec.evolution.second_moment_map", _fail)
        with pytest.raises(RuntimeError, match="multiply-adds.*over the budget"):
            propagate_continuous(spec, np.eye(d)[0], np.eye(d)[0], [1.0, 100.0], route="ode")

    @pytest.mark.parametrize("m", range(4))
    def test_taylor_route_matches_scipy_expm(self, rng, m):
        self._check_against_expm(random_system(rng, 3, m), rng)

    def test_taylor_route_matches_scipy_expm_non_normal(self, rng):
        # |A|_1 = 32.5 against a spectral abscissa of -1: e^(tA) grows a hump before decaying
        a = np.diag([-1.0, -1.5, -2.0, -2.5]) + np.diag([30.0, 30.0, 30.0], 1)
        self._check_against_expm(SystemSpec(a, (0.5 * np.eye(4)[::-1],)), rng)

    def test_taylor_route_matches_scipy_expm_with_norm_estimates(self, monkeypatch):
        # the first criterion-4 system with d = 5, m = 3 and h beta over 63.4 at t = 1
        spec, u, v = next((spec, u, v) for spec, u, v in _criterion4_systems()
                          if spec.m == 3 and _shift(spec)[2] > _ESTIMATE_ABOVE)
        calls = []
        estimate = evolution._alpha_by_degree
        monkeypatch.setattr(evolution, "_alpha_by_degree",
                            lambda *args: calls.append(args) or estimate(*args))
        got = propagate_continuous(spec, u, v, [1.0], "ode").values[0]
        assert len(calls) == 1
        want = scipy.linalg.expm(build_continuous_sum(spec)) @ vec(np.outer(u, v.conj()))
        assert np.max(np.abs(vec(got) - want)) <= 1e-10 * np.max(np.abs(want))

    def test_power_norm_estimates_bound_the_exact_norms(self):
        # the estimates are images of unit vectors, so never above the norm;
        # on criterion 4's systems they stay within a factor 2 of it
        for spec, _, _ in _criterion4_systems():
            mu, shifted, _ = _shift(spec)
            est = _power_norms(SystemSpec(shifted, spec.noise_mats))
            cmat = build_continuous_sum(spec) - mu * np.eye(spec.d ** 2)
            exact = np.array([np.linalg.norm(np.linalg.matrix_power(cmat, p), 1)
                              for p in range(2, 10)])
            assert np.all(est <= exact * (1 + 1e-12))
            assert np.all(est >= 0.5 * exact)

    def test_taylor_route_is_deterministic(self):
        # a system whose gap from 0.25 to 1 runs the norm estimates
        spec, u, v = next(s for s in _criterion4_systems()
                          if 0.75 * _shift(s[0])[2] > _ESTIMATE_ABOVE)
        first = propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        again = propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        assert np.array_equal(first.values, again.values)

    def test_criterion4_map_applications(self, monkeypatch):
        # 25,679 with the norm estimates included; 19 terms per substep
        # of tau beta = 1 would take 167,058
        count = [0]

        def counting(build):
            def make(*args):
                apply = build(*args)

                def counted(v):
                    count[0] += 1
                    return apply(v)
                return counted
            return make

        monkeypatch.setattr(evolution, "second_moment_map", counting(second_moment_map))
        monkeypatch.setattr(evolution, "adjoint_moment_map", counting(adjoint_moment_map))
        for spec, u, v in _criterion4_systems():
            propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        assert count[0] <= 40_000

    def test_kronecker_route_matches_scipy_expm_of_complex_c(self):
        # criterion 4's systems with u != v: V(0) is not Hermitian, so both of
        # its Hermitian parts ride through e^(tR); the oracle exponentiates C
        # itself, built complex
        times = [0.0, 0.25, 1.0]
        for spec, u, v in _criterion4_systems():
            assert not np.array_equal(u, v)
            traj = propagate_continuous(spec, u, v, times, "kronecker")
            cmat = build_continuous_sum(spec)
            w0 = vec(np.outer(u, v.conj()))
            for t, got in zip(times, traj.values):
                want = scipy.linalg.expm(t * cmat) @ w0
                assert np.max(np.abs(vec(got) - want)) <= 1e-12 * np.max(np.abs(want)), t

    @staticmethod
    def _check_against_expm(spec, rng):
        times = [0.0, 1e-3, 0.25, 1.0, 5.0]
        u, v = _random_vec(rng, spec.d), _random_vec(rng, spec.d)
        v0 = np.outer(u, v.conj())
        traj = propagate_continuous(spec, u, v, times, "ode")
        assert np.array_equal(traj.values[0], v0)
        cmat = build_continuous_sum(spec)
        for t, got in zip(times[1:], traj.values[1:]):
            want = scipy.linalg.expm(t * cmat) @ vec(v0)
            assert np.max(np.abs(vec(got) - want)) <= 1e-10 * np.max(np.abs(want)), t


class TestKroneckerRouteDoubling:
    """Grid times 2**i times an earlier t with |t R|_1 > theta_13/2 square e^(t R).

    R is C in real Hermitian coordinates (:func:`kronsum.real_sum`).
    """

    @staticmethod
    def _system():
        # d = 16, m = 2, entries of variance 1/16: |C|_1 = 61.5, |R|_1 = 54.9
        rng = np.random.default_rng(16)
        draw = lambda: (rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))) / 4
        spec = SystemSpec(draw(), (draw(), draw()))
        u, v = _random_vec(rng, 16), _random_vec(rng, 16)
        return spec, u, v

    @staticmethod
    def _per_time(spec, u, v, times):
        rmat = real_sum(spec, "continuous")
        w0 = real_vec(np.outer(u, v.conj()))
        return [vec(real_unvec(matrix_exponential(rmat, t) @ w0, spec.d)) for t in times]

    @pytest.mark.parametrize("times", [
        (0.25, 1.0), (0.5, 1.0, 2.0, 4.0), (0.3, 0.7, 1.4),
        # |0.0625 R|_1 lies between theta_13/2 and theta_13: no halving, same bits
        (0.0625, 1.0),
    ])
    def test_bitwise_equal_to_per_time_exponentials(self, times):
        spec, u, v = self._system()
        norm = np.linalg.norm(real_sum(spec, "continuous"), 1)
        assert evolution._THETA_13 / 2 < 0.0625 * norm <= evolution._THETA_13 < 0.25 * norm
        traj = propagate_continuous(spec, u, v, times, "kronecker")
        for got, want in zip(traj.values, self._per_time(spec, u, v, times)):
            assert np.array_equal(vec(got), want)

    def test_close_where_the_earlier_time_needs_no_halving(self):
        # |0.01 R|_1 < theta_13/2, so 0.16 takes its own exponential
        spec, u, v = self._system()
        times = (0.01, 0.16)
        assert 0.01 * np.linalg.norm(real_sum(spec, "continuous"), 1) <= evolution._THETA_13
        traj = propagate_continuous(spec, u, v, times, "kronecker")
        for got, want in zip(traj.values, self._per_time(spec, u, v, times)):
            assert np.max(np.abs(vec(got) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("times, calls", [
        ((0.25, 1.0), 1), ((0.5, 1.0, 2.0, 4.0), 1), ((0.3, 0.7, 1.4), 2), ((0.3, 0.7, 1.5), 3),
        ((0.0625, 1.0), 1), ((0.01, 0.16), 2),
    ])
    def test_matrix_exponential_calls(self, times, calls, monkeypatch):
        spec, u, v = self._system()
        seen = []

        def spy(a, t=1.0):
            seen.append(t)
            return matrix_exponential(a, t)

        monkeypatch.setattr(evolution, "matrix_exponential", spy)
        propagate_continuous(spec, u, v, times, "kronecker")
        assert len(seen) == calls

    def test_a_tiny_earlier_time_seeds_nothing(self):
        # 900 squarings of e^(1e-300 C) would double its roundoff 900 times
        spec, u, v = self._system()
        times = (1e-300, 2.0 ** 900 * 1e-300)
        traj = propagate_continuous(spec, u, v, times, "kronecker")
        for got, want in zip(traj.values, self._per_time(spec, u, v, times)):
            assert np.array_equal(vec(got), want)

    def test_squaring_overflow_is_reported(self):
        # e^(C) is finite, its 2**10-th power is not
        spec = SystemSpec(np.array([[200.0]]))
        with pytest.raises(OverflowError, match="t=1024"):
            propagate_continuous(spec, [1.0], [1.0], [1.0, 1024.0], "kronecker")


class TestSecondMomentBounds:
    def test_orthogonal_pair_is_exactly_geometric(self, rng):
        spec = SystemSpec(ortho_group.rvs(3, random_state=rng), (ortho_group.rvs(3, random_state=rng),))
        u = np.array([1.0, 0.0, 0.0])
        for n in (0, 1, 5, 10):
            res = second_moment_bounds_discrete(spec, u, n)
            assert res.lower == pytest.approx(2.0 ** n, rel=1e-12)
            assert res.upper == pytest.approx(2.0 ** n, rel=1e-12)
            assert res.actual == pytest.approx(2.0 ** n, rel=1e-9)

    def test_zero_steps_all_equal_initial_norm(self, rng):
        spec = random_system(rng, 3, 2)
        u = 2.0 * _random_vec(rng, 3)
        res = second_moment_bounds_discrete(spec, u, 0)
        u2 = float(np.sum(np.abs(u) ** 2))
        assert res.lower == pytest.approx(u2)
        assert res.upper == pytest.approx(u2)
        assert res.actual == pytest.approx(u2, rel=1e-12)

    def test_demo_decoupled_channel(self):
        # u on the second coordinate never feels the noise: r(5) = b^10
        b = 0.7
        spec = demo_system(0.5, b, 2.0)
        res = second_moment_bounds_discrete(spec, np.array([0.0, 1.0]), 5)
        assert res.actual == pytest.approx(b ** 10, rel=1e-12)
        assert res.lower - 1e-12 <= res.actual <= res.upper + 1e-12
        assert res.lower == pytest.approx(b ** 10, rel=1e-12)  # the bound is tight here

    def test_continuous_scalar_companion_is_tight(self, rng):
        a_val = 0.3
        g = rng.standard_normal((3, 3))
        spec = SystemSpec(a_val * np.eye(3) + (g - g.T), (ortho_group.rvs(3, random_state=rng),))
        u = np.array([1.0, 0.0, 0.0])
        for t in (0.0, 0.5, 1.5):
            res = second_moment_bounds_continuous(spec, u, t)
            want = np.exp((2 * a_val + 1) * t)
            assert res.lower == pytest.approx(want, rel=1e-9)
            assert res.upper == pytest.approx(want, rel=1e-9)
            assert res.actual == pytest.approx(want, rel=1e-6)

    def test_random_chains_hold(self, rng):
        for _ in range(10):
            spec = random_system(rng, 3, 2)
            u = _random_vec(rng, 3)
            res = second_moment_bounds_discrete(spec, u, 8)
            assert res.lower <= res.actual * (1 + 1e-8) + 1e-8
            res_c = second_moment_bounds_continuous(spec, u, 0.5)
            assert res_c.lower <= res_c.actual * (1 + 1e-6) + 1e-6

    def test_violation_raises_loudly(self):
        with pytest.raises(ConsistencyError):
            _check_moment_chain("discrete", 1.0, 2.0, 5.0, 1e-8)
        with pytest.raises(ConsistencyError):
            _check_moment_chain("discrete", 1.0, 2.0, 0.5, 1e-8)


class TestTrajectoryInvariants:
    def test_covariance_norm_upper_bound(self, rng):
        # |vec(V_uv)| <= sqrt(r_u r_v) along the whole trajectory
        for _ in range(5):
            spec = random_system(rng, 3, 2)
            u, v = _random_vec(rng, 3), _random_vec(rng, 3)
            cross = propagate_discrete(spec, u, v, 8)
            ru = propagate_discrete(spec, u, u, 8).second_moments
            rv = propagate_discrete(spec, v, v, 8).second_moments
            for k in range(9):
                lhs = float(np.linalg.norm(vec(cross.values[k])))
                rhs = np.sqrt(ru[k] * rv[k])
                assert lhs <= rhs * (1 + 1e-9) + 1e-12

    def test_covariance_norm_lower_bound_same_vector(self, rng):
        # |vec(V_uu)| >= r_u / sqrt(d)
        for _ in range(5):
            spec = random_system(rng, 4, 1)
            u = _random_vec(rng, 4)
            traj = propagate_discrete(spec, u, u, 8)
            for v, r in zip(traj.values, traj.second_moments):
                lhs = float(np.linalg.norm(vec(v)))
                assert lhs >= r / np.sqrt(4.0) * (1 - 1e-9) - 1e-12

    def test_hermitian_psd_preserved(self, rng):
        for mode in ("discrete", "continuous"):
            spec = random_system(rng, 3, 2)
            u = _random_vec(rng, 3)
            if mode == "discrete":
                traj = propagate_discrete(spec, u, u, 6)
            else:
                traj = propagate_continuous(spec, u, u, [0.25, 0.5, 1.0])
            for v in traj.values:
                scale = max(1.0, float(np.max(np.abs(v))))
                assert np.max(np.abs(v - v.conj().T)) <= 1e-8 * scale
                assert np.min(np.linalg.eigvalsh((v + v.conj().T) / 2)) >= -1e-8 * scale
