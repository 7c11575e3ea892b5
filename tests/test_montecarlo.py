import numpy as np
import pytest

from kronspec.cli import demo_system
from kronspec.matrices import SystemSpec
from kronspec.montecarlo import (
    EmpiricalMoments,
    SimulationConfig,
    SimulationOverflowError,
    _draw_noise,
    _substream,
    compare_to_exact,
    simulate_continuous,
    simulate_discrete,
)

U2 = np.array([1.0, 0.0], dtype=complex)


class TestConfig:
    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            SimulationConfig(paths=1, seed=0)

    def test_noise_family_checked(self):
        with pytest.raises(ValueError):
            SimulationConfig(paths=10, seed=0, noise="cauchy")

    def test_dt_positive(self):
        with pytest.raises(ValueError):
            SimulationConfig(paths=10, seed=0, dt=-0.1)

    def test_horizon_nonnegative(self):
        with pytest.raises(ValueError):
            SimulationConfig(paths=10, seed=0, horizon=-1)


class TestDiscrete:
    def test_deterministic_system_no_variance(self):
        # dyadic entries keep every floating-point operation exact
        spec = SystemSpec(np.diag([0.5, 0.25]))
        cfg = SimulationConfig(paths=64, seed=7, horizon=6)
        moments = simulate_discrete(spec, U2, U2, cfg)
        assert np.max(moments.std_error) == 0.0
        expected = np.diag([0.5 ** 12, 0.0])
        assert np.array_equal(moments.mean_outer, expected)
        assert compare_to_exact(moments, spec, U2, U2).all_passed

    def test_demo_matches_exact_within_four_se(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=100_000, seed=42, horizon=10)
        moments = simulate_discrete(spec, U2, U2, cfg)
        assert compare_to_exact(moments, spec, U2, U2).all_passed

    def test_rademacher_targets_same_covariance(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=50_000, seed=11, noise="rademacher", horizon=10)
        moments = simulate_discrete(spec, U2, U2, cfg)
        assert compare_to_exact(moments, spec, U2, U2).all_passed

    def test_distinct_initial_vectors_share_noise(self):
        spec = demo_system(0.5, 0.7, 2.0)
        v = np.array([0.0, 1.0], dtype=complex)
        cfg = SimulationConfig(paths=50_000, seed=3, horizon=8)
        moments = simulate_discrete(spec, U2, v, cfg)
        assert compare_to_exact(moments, spec, U2, v).all_passed

    def test_seed_determinism_is_bitwise(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=30_000, seed=123, horizon=10)
        a = simulate_discrete(spec, U2, U2, cfg)
        b = simulate_discrete(spec, U2, U2, cfg)
        assert np.array_equal(a.mean_outer, b.mean_outer)
        assert a.second_moment == b.second_moment

    def test_horizon_zero_is_initial_outer(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=1000, seed=0, horizon=0)
        moments = simulate_discrete(spec, U2, U2, cfg)
        assert moments.horizon == 0
        assert np.array_equal(moments.mean_outer, np.outer(U2, U2.conj()))
        assert np.max(moments.std_error) == 0.0

    def test_overflow_aborts_with_counts(self):
        spec = SystemSpec(1e3 * np.eye(2))
        cfg = SimulationConfig(paths=8, seed=1, horizon=300)
        with pytest.raises(SimulationOverflowError) as err:
            simulate_discrete(spec, U2, U2, cfg)
        assert err.value.bad_paths == 8

    @pytest.mark.filterwarnings("error")
    def test_moment_sum_overflow_aborts_without_warning(self):
        # the paths stay finite (1e78 after two steps), but |x|^4 leaves double range
        spec = SystemSpec(np.array([[1e39]]), (np.eye(1),))
        u1 = np.array([1.0], dtype=complex)
        with pytest.raises(SimulationOverflowError, match="moment sums") as err:
            simulate_discrete(spec, u1, u1, SimulationConfig(paths=4, seed=0, horizon=2))
        assert err.value.bad_paths is None

    def test_path_budget_checked_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started for an over-budget run")

        monkeypatch.setattr("kronspec.montecarlo._substream", no_blocks)
        monkeypatch.setattr("kronspec.montecarlo._draw_noise", no_blocks)
        spec = SystemSpec(np.array([[0.5]]))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=10 ** 12, seed=0, horizon=1)
        with pytest.raises(ValueError, match="path-steps, over the budget"):
            simulate_discrete(spec, u1, u1, cfg)

    def test_moment_invariants(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=5000, seed=2, horizon=5)
        moments = simulate_discrete(spec, U2, U2, cfg)
        assert np.all(moments.std_error >= 0.0)
        assert moments.second_moment >= 0.0 and moments.second_moment_se >= 0.0


class TestContinuous:
    def test_frozen_state_when_all_matrices_vanish(self):
        spec = SystemSpec(np.zeros((2, 2)))
        cfg = SimulationConfig(paths=500, seed=5, dt=0.01, horizon=1.0)
        moments = simulate_continuous(spec, U2, U2, cfg)
        assert np.array_equal(moments.mean_outer, np.outer(U2, U2.conj()))
        assert np.max(moments.std_error) == 0.0

    def test_scalar_noise_growth_reaches_e(self):
        # d = 1, pure noise: E|x(1)|^2 = e up to O(dt) bias
        spec = SystemSpec(np.zeros((1, 1)), (np.eye(1),))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=100_000, seed=9, dt=1e-3, horizon=1.0)
        moments = simulate_continuous(spec, u1, u1, cfg)
        comparison = compare_to_exact(moments, spec, u1, u1)
        assert comparison.all_passed
        assert abs(moments.second_moment - np.e) <= max(
            4 * moments.second_moment_se, 10 * cfg.dt
        )

    def test_demo_matches_exact(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=20_000, seed=17, dt=1e-3, horizon=1.0)
        moments = simulate_continuous(spec, U2, U2, cfg)
        assert compare_to_exact(moments, spec, U2, U2).all_passed

    def test_requires_dt(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=100, seed=0, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_continuous(spec, U2, U2, cfg)

    def test_dt_that_takes_no_step_rejected(self):
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=100, seed=0, dt=3.0, horizon=1.0)
        with pytest.raises(ValueError):
            simulate_continuous(spec, U2, U2, cfg)

    def test_step_budget_checked_before_any_noise(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("noise drawn for an over-budget run")

        monkeypatch.setattr("kronspec.montecarlo._draw_noise", no_draws)
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=100, seed=0, dt=1e-300, horizon=1.0)
        with pytest.raises(ValueError, match="budget"):
            simulate_continuous(spec, U2, U2, cfg)


class TestNoiseDraws:
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    def test_moments_match_white_noise_contract(self, kind):
        rng = _substream(314, 0)
        n = 200_000
        draws = _draw_noise(rng, kind, n)
        assert abs(np.mean(draws)) <= 4.0 / np.sqrt(n)
        assert abs(np.var(draws) - 1.0) <= 0.05

    def test_substreams_differ_by_block(self):
        a = _draw_noise(_substream(314, 0), "gaussian", 8)
        b = _draw_noise(_substream(314, 1), "gaussian", 8)
        assert not np.allclose(a, b)

    def test_doubling_paths_shrinks_standard_error(self):
        spec = demo_system(0.5, 0.7, 2.0)
        base = SimulationConfig(paths=20_000, seed=21, horizon=3)
        double = SimulationConfig(paths=40_000, seed=21, horizon=3)
        se1 = simulate_discrete(spec, U2, U2, base).std_error[1, 1]
        se2 = simulate_discrete(spec, U2, U2, double).std_error[1, 1]
        ratio = se2 / se1
        assert abs(ratio - 1.0 / np.sqrt(2.0)) <= 0.2 / np.sqrt(2.0)
