import inspect
import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import ortho_group

from conftest import kron_sum, random_system, vec
from kronspec import evolution
from kronspec.cli import demo_system, main
from kronspec.evolution import (
    exact_covariance,
    matrix_exponential,
    max_relative_discrepancy,
    propagate_continuous,
    propagate_discrete,
    second_moment_bounds,
    _check_moment_chain,
    _ESTIMATE_ABOVE,
    _M_MAX,
    _NORMEST_APPLICATIONS,
    _P_MAX,
    _STEP_EXTRA_BYTES,
    _THETA,
    _estimated_norms,
    _exact_norms,
    _generator_powers,
    _shift,
    _taylor_plan,
)
from kronspec.kronsum import (
    adjoint_moment_map,
    build_continuous_sum,
    second_moment_map,
)
from kronspec.matrices import (
    ConsistencyError,
    SystemSpec,
    real_unvec,
    real_vec,
)
from kronspec.sysio import system_document


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


def _estimated_system():
    """A d = 9, m = 1 system past the exact power norms: beta = 158, so the
    gap to t = 1, and the one from 0.25 to 1, pass h beta = 63.4; the
    estimate of |(C - mu I)^2|_1 reads 0.84 of the norm."""
    rng = np.random.default_rng(1)
    spec = random_system(rng, 9, 1)
    return spec, _random_vec(rng, 9), _random_vec(rng, 9)


def _exact_power_norms(spec):
    """|(C - mu I)^p|_1 for p = 2..9 from the complex C of the np.kron formula."""
    mu = _shift(spec)[0]
    cmat = kron_sum(spec, "continuous") - mu * np.eye(spec.d ** 2)
    return np.array([np.linalg.norm(np.linalg.matrix_power(cmat, p), 1)
                     for p in range(2, 10)])


def _spy_normest(monkeypatch):
    """Count the calls of the block 1-norm estimator."""
    calls = []
    estimate = evolution._normest
    monkeypatch.setattr(evolution, "_normest",
                        lambda *args: calls.append(args[2]) or estimate(*args))
    return calls


def _normest_exits(run):
    """The tests before each ``break`` of :func:`evolution._normest` that ``run()`` takes."""
    lines, first = inspect.getsourcelines(evolution._normest)
    code = evolution._normest.__code__
    taken = set()

    def local(frame, event, arg):
        if event == "line" and lines[frame.f_lineno - first].strip() == "break":
            taken.add(lines[frame.f_lineno - first - 1].strip())
        return local

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        run()
    finally:
        sys.settrace(before)
    return taken


def _spy_alpha(monkeypatch):
    """Record the calls of ``_alpha_by_degree``, which takes the power norms."""
    calls = []
    alpha = evolution._alpha_by_degree
    monkeypatch.setattr(evolution, "_alpha_by_degree",
                        lambda *args: calls.append(args) or alpha(*args))
    return calls


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
        for _ in range(10):
            spec = random_system(rng, 3, m)
            v = crandn(3, 3)
            image = second_moment_map(spec, mode)(v)
            lhs = vec(image)
            rhs = kron_sum(spec, mode) @ vec(v)
            assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.max(np.abs(lhs))))

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_adjoint_form_matches(self, rng, crandn, mode, m):
        # vec(Phi*(V)) == D* vec(V), vec(L*(V)) == C* vec(V)
        for _ in range(10):
            spec = random_system(rng, 3, m)
            v = crandn(3, 3)
            lhs = vec(adjoint_moment_map(spec, mode)(v))
            rhs = kron_sum(spec, mode).conj().T @ vec(v)
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
        spec = random_system(rng, 4, m)
        dense = kron_sum(spec, mode)
        apply = second_moment_map(spec, mode)
        stack = crandn(3, 4, 4)
        images = apply(stack)
        assert images.shape == stack.shape
        for v, image in [(stack[0], apply(stack[0])), *zip(stack, images)]:
            want = dense @ vec(v)
            assert np.max(np.abs(vec(image) - want)) <= 1e-13 * np.max(np.abs(want))


class TestPropagateDiscrete:
    @pytest.mark.parametrize("call", [
        lambda spec, u: propagate_discrete(spec, u, u, 1),
        lambda spec, u: propagate_continuous(spec, u, u, [1.0], "ode"),
        lambda spec, u: exact_covariance(spec, "continuous", u, u, 1.0),
    ], ids=["discrete", "continuous", "exact"])
    def test_initial_vector_of_the_wrong_dimension_refused(self, call):
        with pytest.raises(ValueError, match=r"^initial vectors must have dimension 2, got 3 and 3$"):
            call(demo_system(0.5, 0.7, 2.0), [1.0, 0.0, 0.0])

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

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 64])
    def test_second_moments_equal_the_per_matrix_traces_bit_for_bit(self, crandn, d):
        # one trace over the stack sums each diagonal as np.trace does one matrix
        values = crandn(200, d, d) * 10.0 ** crandn(200, 1, 1).real
        moments = evolution._traj("discrete", range(200), values, True).second_moments
        want = np.array([np.trace(m).real for m in values])
        assert moments.dtype == np.float64
        assert np.array_equal(moments.view(np.uint64), want.view(np.uint64))

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
            assert np.array_equal(exact_covariance(spec, "discrete", u, v, 6), last)

    def test_final_covariance_has_no_trajectory_budget(self):
        spec = SystemSpec(0.9 * np.eye(64))
        u = np.eye(64)[0]
        with pytest.raises(ValueError, match="budget"):
            propagate_discrete(spec, u, u, 1000)
        got = exact_covariance(spec, "discrete", u, u, 1000)
        assert got[0, 0] == pytest.approx(0.81 ** 1000, rel=1e-10)
        assert np.count_nonzero(got) == 1

    def test_final_covariance_work_budget_checked_before_any_map(self, monkeypatch):
        # 1e12 steps at d = 2, m = 1: 1.3e17 multiply-adds, refused before the map is built
        spec = demo_system(0.5, 0.7, 2.0)
        monkeypatch.setattr("kronspec.evolution.second_moment_map", _fail)
        with pytest.raises(ValueError, match="multiply-adds, over the budget"):
            exact_covariance(spec, "discrete", [1, 0], [1, 0], 10**12)
        # a step count past double range is refused the same way
        with pytest.raises(ValueError, match="needs inf map applications, inf multiply-adds, "
                                             r"over the budget of 1e\+11$"):
            exact_covariance(spec, "discrete", [1, 0], [1, 0], 10**400)

    def test_kronecker_route_matches_powers_of_complex_d(self):
        # the route iterates the real form of D; the oracle applies D itself,
        # built complex, to vec V(0)
        for spec, u, v in _criterion4_systems():
            traj = propagate_discrete(spec, u, v, 10, "kronecker")
            dmat = kron_sum(spec, "discrete")
            want = vec(np.outer(u, v.conj()))
            for j, got in enumerate(traj.values):
                assert np.max(np.abs(vec(got) - want)) <= 1e-13 * np.max(np.abs(want)), j
                want = dmat @ want

    @pytest.mark.parametrize("n", [2.5, -1])
    def test_step_count_must_be_whole_and_nonnegative(self, n):
        spec = demo_system(0.5, 0.7, 2.0)
        for route in ("direct", "kronecker"):
            with pytest.raises(ValueError, match="whole number"):
                propagate_discrete(spec, [1, 0], [1, 0], n, route)
        with pytest.raises(ValueError, match="whole number"):
            exact_covariance(spec, "discrete", [1, 0], [1, 0], n)

    @pytest.mark.filterwarnings("error")
    def test_routes_name_the_same_first_overflowing_step(self):
        # V(j) = 100**j at (0, 0): V(154) is finite, V(155) is not, and every
        # later step stays non-finite
        spec = SystemSpec(10.0 * np.eye(2))
        for route in ("direct", "kronecker"):
            with pytest.raises(OverflowError,
                               match=r"^covariance propagation at step 155 overflowed$"):
                propagate_discrete(spec, [1.0, 0.0], [1.0, 0.0], 200, route)

    def test_whole_float_step_count_runs_as_int(self, rng):
        spec = random_system(rng, 3, 2)
        u, v = _random_vec(rng, 3), _random_vec(rng, 3)
        for route in ("direct", "kronecker"):
            got = propagate_discrete(spec, u, v, 3.0, route)
            want = propagate_discrete(spec, u, v, 3, route)
            assert got.index == want.index == (0, 1, 2, 3)
            assert np.array_equal(got.values, want.values)
        assert np.array_equal(exact_covariance(spec, "discrete", u, v, 3.0),
                              exact_covariance(spec, "discrete", u, v, 3))


@pytest.mark.filterwarnings("error")  # an overflowing V(0) is one error, never a warning first
class TestInitialCovarianceOverflow:
    # finite u, but u u* = 1e600 leaves double range
    SPEC = SystemSpec(np.array([[0.5]]))
    U = [1e300]

    @pytest.mark.parametrize("route", ["direct", "kronecker"])
    @pytest.mark.parametrize("n", [0, 2])
    def test_propagate_discrete(self, route, n):
        with pytest.raises(OverflowError, match=r"initial covariance u v\* overflowed"):
            propagate_discrete(self.SPEC, self.U, self.U, n, route)

    @pytest.mark.parametrize("route", ["ode", "kronecker"])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_propagate_continuous(self, route, t):
        with pytest.raises(OverflowError, match=r"initial covariance u v\* overflowed"):
            propagate_continuous(self.SPEC, self.U, self.U, [t], route)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_exact_covariance(self, mode):
        with pytest.raises(OverflowError, match=r"initial covariance u v\* overflowed"):
            exact_covariance(self.SPEC, mode, self.U, self.U, 1)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_second_moment_bounds(self, mode):
        with pytest.raises(OverflowError, match=r"initial covariance u v\* overflowed"):
            second_moment_bounds(self.SPEC, mode, self.U, 1, 1e-8)


@pytest.mark.filterwarnings("error")
class TestCovarianceNearTheTopOfDoubleRange:
    """Finite covariances whose coordinates take sums near 1.8e308 on the way.

    V(0) = 1e308 (1 + i) with V' = 0, and V(0) = 4.9e307 (1 + i) with
    V' = ln 2 V, so V(1) = 9.8e307 (1 + i): both Kronecker routes map them
    through the real Hermitian coordinates and back without overflowing.
    """

    @pytest.mark.parametrize("a, scale, times", [(0.0, 1e154, [0.0, 1.0]),
                                                 (np.log(2.0) / 2, 0.7e154, [1.0])])
    def test_kronecker_routes_match_the_d_by_d_routes(self, a, scale, times):
        spec = SystemSpec(np.array([[a]]))
        u, v = [scale], [complex(scale, -scale)]
        ode = propagate_continuous(spec, u, v, times, "ode")
        kron_route = propagate_continuous(spec, u, v, times, "kronecker")
        assert np.all(np.isfinite(kron_route.values))
        assert max_relative_discrepancy(ode, kron_route) <= 1e-15
        direct = propagate_discrete(spec, u, v, 2, "direct")
        kron_route = propagate_discrete(spec, u, v, 2, "kronecker")
        assert np.all(np.isfinite(kron_route.values))
        assert max_relative_discrepancy(direct, kron_route) <= 1e-15


class TestMatrixExponential:
    def test_zero_time_gives_identity(self, crandn):
        assert np.array_equal(matrix_exponential(crandn(3, 3), 0.0), np.eye(3))

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_refused(self, t):
        with pytest.raises(ValueError, match="time must be finite"):
            matrix_exponential(np.eye(2), t)

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, t", [
        (np.diag([2.0, 0.0]), 1e308),           # t a overflows
        (np.diag([2.0, 0.0]).astype(np.complex128), 1e308),
        (np.array([[1e308, 0.0], [1e308, 0.0]]), 1.0),  # t a is finite, its 1-norm is not
    ], ids=["real", "complex", "norm"])
    def test_overflowing_argument_raises_without_warning(self, a, t):
        with pytest.raises(OverflowError, match=r"1-norm of t\*a overflowed"):
            matrix_exponential(a, t)

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
        with pytest.raises(ValueError, match="budget"):
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
        with pytest.raises(ValueError, match="multiply-adds.*over the budget"):
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
        calls = _spy_alpha(monkeypatch)
        got = propagate_continuous(spec, u, v, [1.0], "ode").values[0]
        assert len(calls) == 1
        want = scipy.linalg.expm(kron_sum(spec, "continuous")) @ vec(np.outer(u, v.conj()))
        assert np.max(np.abs(vec(got) - want)) <= 1e-10 * np.max(np.abs(want))

    def test_power_norm_estimates_bound_the_exact_norms(self):
        # the estimates are images of unit vectors, so never above the norm;
        # on criterion 4's systems they stay within a factor 2 of it
        for spec, _, _ in _criterion4_systems():
            mu, shifted, _ = _shift(spec)
            est = _estimated_norms(SystemSpec(shifted, spec.noise_mats))
            cmat = kron_sum(spec, "continuous") - mu * np.eye(spec.d ** 2)
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

    def test_taylor_route_matches_scipy_expm_with_estimated_norms(self, monkeypatch):
        spec, u, v = _estimated_system()
        calls = _spy_normest(monkeypatch)
        got = propagate_continuous(spec, u, v, [1.0], "ode").values[0]
        assert calls == list(range(2, _P_MAX + 2))
        want = scipy.linalg.expm(kron_sum(spec, "continuous")) @ vec(np.outer(u, v.conj()))
        assert np.max(np.abs(vec(got) - want)) <= 1e-10 * np.max(np.abs(want))

    def test_estimated_power_norms_bound_the_exact_norms(self, monkeypatch):
        spec, u, v = _estimated_system()
        mu, shifted, beta = _shift(spec)
        assert _taylor_plan(spec, mu, beta, np.array([1.0]))[2] == "estimated"
        # and no K is built at d = 9
        monkeypatch.setattr(evolution, "_generator_powers", _fail)
        propagate_continuous(spec, u, v, [1.0], "ode")
        calls = _spy_normest(monkeypatch)
        est = _estimated_norms(SystemSpec(shifted, spec.noise_mats))
        assert calls == list(range(2, _P_MAX + 2))
        exact = _exact_power_norms(spec)
        assert np.all(est <= exact * (1 + 1e-12))
        assert np.all(est >= 0.5 * exact)

    def test_taylor_route_with_estimated_norms_is_deterministic(self, monkeypatch):
        spec, u, v = _estimated_system()
        calls = _spy_normest(monkeypatch)
        first = propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        assert calls
        again = propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        assert np.array_equal(first.values, again.values)

    def test_criterion4_map_applications(self, monkeypatch):
        # 2,256 with the power norms included, where the substeps that take
        # them sum their polynomials on the powers of K instead; 19 terms per
        # substep of tau beta = 1 would take 167,058
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
            cmat = kron_sum(spec, "continuous")
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
        cmat = kron_sum(spec, "continuous")
        for t, got in zip(times[1:], traj.values[1:]):
            want = scipy.linalg.expm(t * cmat) @ vec(v0)
            assert np.max(np.abs(vec(got) - want)) <= 1e-10 * np.max(np.abs(want)), t


class TestPowerNorms:
    """While (p_max + 1) d**2 is no more than the estimator's most
    applications (d <= 8), the power norms are exact, read off the matrix of
    the map."""

    #: the largest d that takes the exact norms
    EXACT_UP_TO = math.isqrt(_NORMEST_APPLICATIONS // (_P_MAX + 1))

    def test_boundary_follows_from_the_estimator_price(self):
        assert self.EXACT_UP_TO == 8

    def test_exact_on_criterion4_systems(self):
        for spec, _, _ in _criterion4_systems():
            shifted = _shift(spec)[1]
            got = _exact_norms(_generator_powers(SystemSpec(shifted, spec.noise_mats)))
            exact = _exact_power_norms(spec)
            assert np.all(np.abs(got - exact) <= 1e-12 * exact)

    @pytest.mark.parametrize("offset, estimated", [(0, False), (1, True)])
    def test_estimator_runs_only_past_the_boundary(self, monkeypatch, offset, estimated):
        # a grid time past both triggers: the plan takes the norms on either side
        d = self.EXACT_UP_TO + offset
        spec = random_system(np.random.default_rng(2), d, 3)
        mu, _, beta = _shift(spec)
        t = 1.01 * _ESTIMATE_ABOVE / beta
        source = _taylor_plan(spec, mu, beta, np.array([t]))[2]
        assert source == ("estimated" if estimated else "exact")
        calls = _spy_normest(monkeypatch)
        propagate_continuous(spec, np.eye(d)[0], np.eye(d)[0], [t], "ode")
        assert bool(calls) == estimated

    @pytest.mark.parametrize("seed, d, m, rule", [
        (1228, 3, 1, "if k and not sums[j] > est:"),
        (19819, 6, 0, "if k == _NORMEST_ITERATIONS - 1:"),
    ], ids=["no-increase", "last-iteration"])
    def test_estimates_bound_the_norms_at_each_stopping_rule(self, seed, d, m, rule):
        # small real systems, estimated directly (the route estimates only at
        # d >= 9), on which some power's estimate stops by the given rule
        rng = np.random.default_rng(seed)
        spec = SystemSpec(rng.standard_normal((d, d)),
                          tuple(0.5 * rng.standard_normal((d, d)) for _ in range(m)))
        est = []
        assert rule in _normest_exits(lambda: est.append(_estimated_norms(spec)))
        cmat = kron_sum(spec, "continuous")
        exact = np.array([np.linalg.norm(np.linalg.matrix_power(cmat, p), 1)
                          for p in range(2, _P_MAX + 2)])
        assert np.all(est[0] <= exact * (1 + 1e-12))
        assert np.all(est[0] >= 0.5 * exact)

    def test_exact_norms_stay_within_the_estimator_price(self, monkeypatch):
        # counts stacked matrices, not calls: the norms take one call on the
        # stack of d**2 = 64 unit matrices, the powers are dense products,
        # and so are the substeps, summed on those powers
        count = [0]
        build = evolution.second_moment_map

        def counting(*args):
            apply = build(*args)

            def counted(v):
                count[0] += v.shape[0] if v.ndim == 3 else 1
                return apply(v)
            return counted

        monkeypatch.setattr(evolution, "second_moment_map", counting)
        calls = _spy_normest(monkeypatch)
        d = self.EXACT_UP_TO
        spec = random_system(np.random.default_rng(2), d, 3)
        t = 1.01 * _THETA[_M_MAX] / _shift(spec)[2]
        propagate_continuous(spec, np.eye(d)[0], np.eye(d)[0], [t], "ode")
        assert not calls
        assert count[0] == self.EXACT_UP_TO ** 2
        assert count[0] <= _NORMEST_APPLICATIONS

    def test_forced_estimates_give_criterion4_the_same_bits(self, monkeypatch):
        # on these systems the estimator finds each power's largest column,
        # so both plans, and the trajectories, are the same; only the norms
        # are forced, so the norms are taken for the same grids, and the
        # powers of K are formed and sum the polynomials in both runs
        systems = list(_criterion4_systems())
        exact = [propagate_continuous(spec, u, v, [0.25, 1.0], "ode").values
                 for spec, u, v in systems]
        calls = _spy_normest(monkeypatch)
        for (spec, u, v), want in zip(systems, exact):
            system = SystemSpec(_shift(spec)[1], spec.noise_mats)
            monkeypatch.setattr(evolution, "_exact_norms",
                                lambda powers: evolution._estimated_norms(system))
            got = propagate_continuous(spec, u, v, [0.25, 1.0], "ode").values
            assert np.array_equal(got, want)
        assert calls


class TestTaylorPlan:
    """Once the power norms are taken they plan every grid gap, and at
    d <= 8 they are taken as soon as beta alone needs a second substep."""

    @staticmethod
    def _spy_plan(monkeypatch):
        """Record (alpha, applications per gap) for each call of ``_plan``."""
        calls = []
        plan = evolution._plan

        def recorded(gaps, alpha):
            degrees, substeps = plan(gaps, alpha)
            calls.append((alpha, degrees * substeps))
            return degrees, substeps

        monkeypatch.setattr(evolution, "_plan", recorded)
        return calls

    @pytest.mark.parametrize("system", ["d9", "criterion4"])
    def test_norms_plan_every_gap(self, monkeypatch, system):
        # the d = 9 system's first gap has h beta = 39.5, under 63.4, and
        # the d = 5 one's 30.8; the gap from 0.25 to 1 takes the norms, and
        # both gaps then plan with them: 220 applications fall to 35 on
        # the first, and 200 to 35
        spec, u, v = _estimated_system() if system == "d9" else next(
            s for s in _criterion4_systems()
            if s[0].d == 5 and s[0].m == 3 and 0.75 * _shift(s[0])[2] > _ESTIMATE_ABOVE)
        _, shifted, beta = _shift(spec)
        assert 0.25 * beta <= _ESTIMATE_ABOVE
        plans = self._spy_plan(monkeypatch)
        propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        (by_beta, beta_work), (by_alpha, alpha_work) = plans
        assert np.array_equal(by_beta, np.full(len(_THETA), beta))
        # one row of alpha for every gap
        system = SystemSpec(shifted, spec.noise_mats)
        norms = (_estimated_norms(system) if spec.d > 8
                 else _exact_norms(_generator_powers(system)))
        want = evolution._alpha_by_degree(norms, beta)
        assert np.array_equal(by_alpha, want)
        assert np.all(alpha_work <= beta_work)
        assert alpha_work[0] < beta_work[0]

    def test_plan_prices_a_grid_before_any_map_is_built(self, monkeypatch):
        for name in ("second_moment_map", "_generator_powers", "_estimated_norms"):
            monkeypatch.setattr(evolution, name, _fail)
        d5 = next(s[0] for s in _criterion4_systems()
                  if s[0].d == 5 and s[0].m == 3 and 0.75 * _shift(s[0])[2] > _ESTIMATE_ABOVE)
        d9 = _estimated_system()[0]
        for spec, grid, source in [(d5, [0.25, 1.0], "exact"), (d9, [0.25, 1.0], "estimated"),
                                   (d5, [0.5 * _THETA[_M_MAX] / _shift(d5)[2]], None)]:
            mu, _, beta = _shift(spec)
            gaps = np.diff(grid, prepend=0.0)
            degrees, substeps, got = _taylor_plan(spec, mu, beta, gaps)
            assert got == source
            want = evolution._plan(gaps, np.full(len(_THETA), beta))
            assert np.array_equal(degrees, want[0]) and np.array_equal(substeps, want[1])
        # the rotation at rate 1e7: 1.11e8 map applications to t = 1
        rot = SystemSpec(1e7 * np.array([[0.0, 1.0], [-1.0, 0.0]]))
        mu, _, beta = _shift(rot)
        with pytest.raises(ValueError, match=r"^Taylor propagation needs 1\.11e\+08 map "
                           r"applications, 7\.28e\+12 multiply-adds .* over the budget of 1e\+11$"):
            _taylor_plan(rot, mu, beta, np.array([1.0]))

    @pytest.mark.parametrize("scale, taken", [(0.99, False), (1.01, True)])
    def test_exact_norms_taken_past_theta_55(self, monkeypatch, scale, taken):
        spec, u, v = next(s for s in _criterion4_systems() if s[0].d == 5 and s[0].m == 3)
        t = scale * _THETA[_M_MAX] / _shift(spec)[2]
        calls = _spy_alpha(monkeypatch)
        propagate_continuous(spec, u, v, [t], "ode")
        assert len(calls) == taken

    @pytest.mark.parametrize("scale, taken", [(0.99, False), (1.01, True)])
    def test_estimates_taken_past_63_4_at_d9(self, monkeypatch, scale, taken):
        # below 63.4 the d = 9 gap is far past theta_55 = 9.9 and still
        # plans from beta alone
        spec, u, v = _estimated_system()
        t = scale * _ESTIMATE_ABOVE / _shift(spec)[2]
        assert t * _shift(spec)[2] > _THETA[_M_MAX]
        calls = _spy_alpha(monkeypatch)
        estimates = _spy_normest(monkeypatch)
        propagate_continuous(spec, u, v, [t], "ode")
        assert len(calls) == taken
        assert estimates == (list(range(2, _P_MAX + 2)) if taken else [])

    def test_criterion4_matches_scipy_expm(self):
        times = [0.25, 1.0]
        for spec, u, v in _criterion4_systems():
            traj = propagate_continuous(spec, u, v, times, "ode")
            cmat = kron_sum(spec, "continuous")
            w0 = vec(np.outer(u, v.conj()))
            for t, got in zip(times, traj.values):
                want = scipy.linalg.expm(t * cmat) @ w0
                assert np.max(np.abs(vec(got) - want)) <= 1e-10 * np.max(np.abs(want)), t


class _CountedProducts(np.ndarray):
    """The stack of K's powers, logging the operand dimensions of every
    product it, or a slice of it, takes part in."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append(tuple(np.ndim(x) for x in inputs))
        plain = [x.view(np.ndarray) if isinstance(x, _CountedProducts) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _overflow_edge():
    """A rotation at rate 1e36 with noise B = 1e17 I: beta = 2.02e36, so
    |K^9|_1 overflows while V stays finite, tr V(t) = e^(1e34 t)."""
    spec = SystemSpec(1e36 * np.array([[0.0, 1.0], [-1.0, 0.0]]), (1e17 * np.eye(2),))
    return spec, np.array([1.0, 0.0]), np.array([1.0, 0.0]), [1e-35, 2e-35]


class TestTaylorOperator:
    """Once the exact norms have formed the powers of K, each substep's
    polynomial is summed on them by Paterson and Stockmeyer; otherwise every
    term is a map application."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the shape of every map input and the powers formed for the norms."""
        shapes, ks = [], []
        build, powers = evolution.second_moment_map, evolution._generator_powers

        def counting(*args):
            apply = build(*args)
            return lambda v: shapes.append(v.shape) or apply(v)

        def counted_powers(system):
            stack, e = powers(system)
            ks.append(stack.view(_CountedProducts))
            ks[-1].log = []
            return ks[-1], e

        monkeypatch.setattr(evolution, "second_moment_map", counting)
        monkeypatch.setattr(evolution, "_generator_powers", counted_powers)
        return shapes, ks

    @staticmethod
    def _on_the_map(monkeypatch):
        """Make the Taylor route plan with the exact norms but take the
        estimated branch, so the same plan runs on the map and no K is kept."""
        plan = evolution._taylor_plan

        def estimated(*args):
            degrees, substeps, source = plan(*args)
            return degrees, substeps, source and "estimated"

        monkeypatch.setattr(evolution, "_taylor_plan", estimated)
        monkeypatch.setattr(evolution, "_estimated_norms",
                            lambda system: _exact_norms(_generator_powers(system)))

    @pytest.mark.parametrize("d", [3, 4, 5, 8])
    def test_polynomials_run_on_the_powers_of_k_once_the_norms_are_taken(self, monkeypatch, d):
        # criterion 4's first system of dimension d whose gap from 0.25 to 1
        # takes the norms (none does at d = 2), or a d = 8 one with beta = 265
        if d == 8:
            rng = np.random.default_rng(2)
            spec, u, v = random_system(rng, 8, 3), _random_vec(rng, 8), _random_vec(rng, 8)
        else:
            spec, u, v = next(s for s in _criterion4_systems()
                              if s[0].d == d and 0.75 * _shift(s[0])[2] > _THETA[_M_MAX])
        plans = []
        plan = evolution._plan
        monkeypatch.setattr(evolution, "_plan",
                            lambda *args: plans.append(plan(*args)) or plans[-1])
        shapes, ks = self._spy(monkeypatch)
        propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        # one application, to the stack of unit matrices, builds K, whose
        # p_max = 8 dense products form K^2..K^9
        assert shapes == [(d * d, d, d)]
        (k,) = ks
        assert k.shape == (_P_MAX + 1, d * d, d * d)
        # per substep: one stacked product for the basis V K^i, i < 9, then
        # ceil((m + 1)/9) - 1 Horner products with K^9
        degrees, substeps = plans[-1]
        want = []
        for degree, steps in zip(degrees, substeps.astype(int)):
            want += steps * ([(1, 3)] + [(1, 2)] * (-(-(degree + 1) // 9) - 1))
        assert k.log == want
        assert (1, 2) in want

    def test_terms_go_through_the_map_below_theta_55(self, monkeypatch):
        spec, u, v = next(s for s in _criterion4_systems() if s[0].d == 5 and s[0].m == 3)
        t = 0.99 * _THETA[_M_MAX] / _shift(spec)[2]
        shapes, ks = self._spy(monkeypatch)
        propagate_continuous(spec, u, v, [t], "ode")
        assert not ks
        assert shapes and set(shapes) == {(5, 5)}

    def test_terms_go_through_the_map_at_d9(self, monkeypatch):
        # the estimator applies the map to stacks; the terms, to one matrix each
        spec, u, v = _estimated_system()
        shapes, ks = self._spy(monkeypatch)
        estimates = _spy_normest(monkeypatch)
        propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        assert estimates and not ks
        assert (9, 9) in shapes

    def test_criterion4_matches_the_map(self, monkeypatch):
        # plus the d = 8 system with beta = 265 and the overflow edge
        rng = np.random.default_rng(2)
        systems = [(*s, [0.25, 1.0]) for s in _criterion4_systems()] + [
            (random_system(rng, 8, 3), _random_vec(rng, 8), _random_vec(rng, 8), [0.25, 1.0]),
            _overflow_edge()]
        with_k = [propagate_continuous(*s, "ode") for s in systems]
        self._on_the_map(monkeypatch)
        for s, got in zip(systems, with_k):
            want = propagate_continuous(*s, "ode")
            assert max_relative_discrepancy(got, want) <= 1e-13

    @pytest.mark.filterwarnings("error")
    def test_finite_where_the_powers_of_k_overflow(self, monkeypatch, tmp_path, capsys):
        # |K^9|_1 is inf, yet the polynomial, summed on the scaled powers,
        # keeps every V finite and matches the Kronecker route
        spec, u, v, times = _overflow_edge()
        calls = _spy_alpha(monkeypatch)
        traj = propagate_continuous(spec, u, v, times, "ode")
        assert len(calls) == 1
        mu, shifted, beta = _shift(spec)
        assert beta > 2e36
        assert _exact_norms(_generator_powers(SystemSpec(shifted, spec.noise_mats)))[-1] == np.inf
        assert np.allclose(traj.second_moments, np.exp([0.1, 0.2]), rtol=1e-13, atol=0)
        path = tmp_path / "edge.json"
        path.write_text(json.dumps(system_document(spec)))
        assert main(["evolve", str(path), "--mode=continuous", "--u", "[[1,0],[0,0]]",
                     "--times", "1e-35,2e-35", "--route", "both"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert json.loads(out.splitlines()[-1])["max_route_discrepancy"] <= 1e-10

    @pytest.mark.filterwarnings("error")  # overflow is one error line, never a warning first
    def test_overflow_names_the_same_grid_time_as_the_map(self, monkeypatch, tmp_path, capsys):
        # mu = 700 and beta = 40.25: the gaps of 0.5 pass theta_55, so K is
        # built; V grows like e^(740 t), past double range before t = 1
        spec = SystemSpec(np.diag([370.0, 330.0]), (0.5 * np.eye(2)[::-1],))
        path = tmp_path / "grows.json"
        path.write_text(json.dumps(system_document(spec)))
        argv = ["evolve", str(path), "--mode=continuous", "--u", "[[1,0],[0,0]]",
                "--times", "0.5,1,1.5", "--route", "ode"]
        errors = []
        for on_the_map in (False, True):
            if on_the_map:
                self._on_the_map(monkeypatch)
            _, ks = self._spy(monkeypatch)
            assert main(argv) == 70
            assert bool(ks) != on_the_map
            out, err = capsys.readouterr()
            assert out == ""
            errors.append(err)
            with pytest.raises(OverflowError, match=r"before t=1\.0 overflowed"):
                propagate_continuous(spec, [1, 0], [1, 0], [0.5, 1.0, 1.5], "ode")
        assert errors[0] == errors[1]
        assert "t=1.0" in errors[0]


class TestKroneckerRouteDoubling:
    """Grid times 2**i times an earlier t with |t R|_1 > theta_13/2 square e^(t R).

    R is C in real Hermitian coordinates (:func:`kronsum.build_continuous_sum`).
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
        rmat = build_continuous_sum(spec)
        w0 = real_vec(np.outer(u, v.conj()))
        return [vec(real_unvec(matrix_exponential(rmat, t) @ w0, spec.d)) for t in times]

    @pytest.mark.parametrize("times", [
        (0.25, 1.0), (0.5, 1.0, 2.0, 4.0), (0.3, 0.7, 1.4),
        # |0.0625 R|_1 lies between theta_13/2 and theta_13: no halving, same bits
        (0.0625, 1.0),
    ])
    def test_bitwise_equal_to_per_time_exponentials(self, times):
        spec, u, v = self._system()
        norm = np.linalg.norm(build_continuous_sum(spec), 1)
        assert evolution._THETA_13 / 2 < 0.0625 * norm <= evolution._THETA_13 < 0.25 * norm
        traj = propagate_continuous(spec, u, v, times, "kronecker")
        for got, want in zip(traj.values, self._per_time(spec, u, v, times)):
            assert np.array_equal(vec(got), want)

    def test_close_where_the_earlier_time_needs_no_halving(self):
        # |0.01 R|_1 < theta_13/2, so 0.16 takes its own exponential
        spec, u, v = self._system()
        times = (0.01, 0.16)
        assert 0.01 * np.linalg.norm(build_continuous_sum(spec), 1) <= evolution._THETA_13
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
            res = second_moment_bounds(spec, "discrete", u, n, 1e-8)
            assert res.lower == pytest.approx(2.0 ** n, rel=1e-12)
            assert res.upper == pytest.approx(2.0 ** n, rel=1e-12)
            assert res.actual == pytest.approx(2.0 ** n, rel=1e-9)

    def test_zero_steps_all_equal_initial_norm(self, rng):
        spec = random_system(rng, 3, 2)
        u = 2.0 * _random_vec(rng, 3)
        res = second_moment_bounds(spec, "discrete", u, 0, 1e-8)
        u2 = float(np.sum(np.abs(u) ** 2))
        assert res.lower == pytest.approx(u2)
        assert res.upper == pytest.approx(u2)
        assert res.actual == pytest.approx(u2, rel=1e-12)

    def test_demo_decoupled_channel(self):
        # u on the second coordinate never feels the noise: r(5) = b^10
        b = 0.7
        spec = demo_system(0.5, b, 2.0)
        res = second_moment_bounds(spec, "discrete", np.array([0.0, 1.0]), 5, 1e-8)
        assert res.actual == pytest.approx(b ** 10, rel=1e-12)
        assert res.lower - 1e-12 <= res.actual <= res.upper + 1e-12
        assert res.lower == pytest.approx(b ** 10, rel=1e-12)  # the bound is tight here

    def test_continuous_scalar_companion_is_tight(self, rng):
        a_val = 0.3
        g = rng.standard_normal((3, 3))
        spec = SystemSpec(a_val * np.eye(3) + (g - g.T), (ortho_group.rvs(3, random_state=rng),))
        u = np.array([1.0, 0.0, 0.0])
        for t in (0.0, 0.5, 1.5):
            res = second_moment_bounds(spec, "continuous", u, t, 1e-6)
            want = np.exp((2 * a_val + 1) * t)
            assert res.lower == pytest.approx(want, rel=1e-9)
            assert res.upper == pytest.approx(want, rel=1e-9)
            assert res.actual == pytest.approx(want, rel=1e-6)

    def test_random_chains_hold(self, rng):
        for _ in range(10):
            spec = random_system(rng, 3, 2)
            u = _random_vec(rng, 3)
            res = second_moment_bounds(spec, "discrete", u, 8, 1e-8)
            assert res.lower <= res.actual * (1 + 1e-8) + 1e-8
            res_c = second_moment_bounds(spec, "continuous", u, 0.5, 1e-6)
            assert res_c.lower <= res_c.actual * (1 + 1e-6) + 1e-6

    def test_violation_raises_loudly(self):
        with pytest.raises(ConsistencyError):
            _check_moment_chain("discrete", 1.0, 2.0, 5.0, 1e-8)
        with pytest.raises(ConsistencyError):
            _check_moment_chain("discrete", 1.0, 2.0, 0.5, 1e-8)


def _per_index_discrepancy(a, b):
    """The per-index loop :func:`max_relative_discrepancy` replaced: the reference it must equal."""
    worst = 0.0
    for va, vb in zip(a.values, b.values):
        scale = max(float(np.max(np.abs(va))), float(np.max(np.abs(vb))), 1e-300)
        worst = max(worst, float(np.max(np.abs(va - vb))) / scale)
    return worst


class TestMaxRelativeDiscrepancy:
    def test_equals_the_per_index_loop_on_criterion4(self):
        for spec, u, v in _criterion4_systems():
            pairs = [
                (propagate_discrete(spec, u, v, 10, "direct"),
                 propagate_discrete(spec, u, v, 10, "kronecker")),
                (propagate_continuous(spec, u, v, [0.25, 1.0], "ode"),
                 propagate_continuous(spec, u, v, [0.25, 1.0], "kronecker")),
            ]
            for a, b in pairs:
                got = max_relative_discrepancy(a, b)
                assert type(got) is float
                assert got == _per_index_discrepancy(a, b) > 0.0

    def test_equals_the_per_index_loop_across_blocks(self):
        # at d = 4 a block holds 4096 indices: 10001 take three blocks
        spec, u, v = next((spec, u, v) for spec, u, v in _criterion4_systems() if spec.d == 4)
        spec = SystemSpec(spec.a / 4, tuple(b / 4 for b in spec.noise_mats))
        a = propagate_discrete(spec, u, v, 10_000, "direct")
        b = propagate_discrete(spec, u, v, 10_000, "kronecker")
        assert max_relative_discrepancy(a, b) == _per_index_discrepancy(a, b) > 0.0

    def test_zero_trajectories_compare_at_the_floor(self):
        zero = propagate_discrete(SystemSpec(np.zeros((2, 2))), [0, 0], [0, 0], 3)
        assert max_relative_discrepancy(zero, zero) == _per_index_discrepancy(zero, zero) == 0.0

    @pytest.mark.parametrize("other, message", [
        (lambda spec: propagate_discrete(spec, [1, 0], [1, 0], 1), "are not comparable"),
        (lambda spec: propagate_continuous(spec, [1, 0], [1, 0], [0.5, 1.0, 2.0]),
         "are not comparable"),
        (lambda spec: propagate_continuous(spec, [1, 0], [1, 0], [0.5, 1.0]), "different grids"),
    ], ids=["mode", "length", "grid"])
    def test_incomparable_trajectories_refused(self, other, message):
        # against a continuous trajectory at t = 0.5 and 2
        spec = demo_system(0.5, 0.7, 2.0)
        traj = propagate_continuous(spec, [1, 0], [1, 0], [0.5, 2.0])
        with pytest.raises(ValueError, match=message):
            max_relative_discrepancy(traj, other(spec))


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
