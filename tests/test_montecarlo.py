import os
import sys
import tracemalloc
from concurrent import futures

import numpy as np
import pytest

from conftest import random_system
from kronspec import montecarlo
from kronspec.cli import demo_system
from kronspec.evolution import exact_covariance
from kronspec.matrices import SystemSpec
from kronspec.montecarlo import (
    _ATOL_FLOOR,
    _GROUP_BYTES,
    BLOCK_PATHS,
    EmpiricalMoments,
    SimulationConfig,
    _block_sums,
    _chunk_steps,
    _draw_noise,
    _substream,
    _sweep_paths,
    _tile_paths,
    compare_to_exact,
    simulate_continuous,
    simulate_discrete,
)

U2 = np.array([1.0, 0.0], dtype=complex)


def _fail(*args):
    raise AssertionError("a block started for an over-budget run")


def _spy_on_workers(monkeypatch):
    """Record each thread pool's worker count and the size of each block run."""
    widths, blocks = [], []

    class Pool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            widths.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    run_block = montecarlo._run_block
    monkeypatch.setattr(futures, "ThreadPoolExecutor", Pool)
    monkeypatch.setattr(montecarlo, "_run_block",
                        lambda rng, size, *rest: blocks.append(size) or run_block(rng, size, *rest))
    return widths, blocks


class TestConfig:
    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            SimulationConfig(paths=1, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_fits_64_unsigned_bits(self, seed):
        with pytest.raises(ValueError, match="seed must fit in 64 unsigned bits"):
            SimulationConfig(paths=10, seed=seed)

    @pytest.mark.parametrize("field, value", [("paths", 2.5), ("paths", 3.0), ("seed", 1.5)])
    def test_paths_and_seed_are_integers(self, field, value):
        # a fractional path count used to fail later, inside the block loop,
        # and a fractional seed was truncated
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            SimulationConfig(**{"paths": 10, "seed": 0, field: value})

    @pytest.mark.parametrize("value", [True, False, np.True_])
    @pytest.mark.parametrize("field", ["paths", "seed", "dt", "horizon"])
    def test_bools_are_refused(self, field, value):
        # a bool used to pass as 1 or 0: seed=True ran with seed 1
        with pytest.raises(ValueError, match=f"^{field} must be an? (integer|number), got "):
            SimulationConfig(**{"paths": 10, "seed": 0, field: value})

    def test_numpy_integers_accepted(self):
        cfg = SimulationConfig(paths=np.int64(10), seed=np.uint64(2 ** 64 - 1))
        assert cfg.paths == 10

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
        with pytest.raises(OverflowError, match=r"^8 path\(s\) overflowed by step 256; "):
            simulate_discrete(spec, U2, U2, cfg)

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_multi_block_overflow_stops_at_first_check_in_block_order(self, cpus, monkeypatch):
        # every path leaves double range near step 103; the first check is at
        # step 256 and reports block 0 (16384 paths), not the 8-path last block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        spec = SystemSpec(np.array([[1e3]]), (np.eye(1),))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=2 * BLOCK_PATHS + 8, seed=1, horizon=600)
        with pytest.raises(OverflowError,
                           match=rf"^{BLOCK_PATHS} path\(s\) overflowed by step 256; "):
            simulate_discrete(spec, u1, u1, cfg)

    @pytest.mark.filterwarnings("error")
    def test_moment_sum_overflow_aborts_without_warning(self):
        # the paths stay finite (1e78 after two steps), but |x|^4 leaves double range
        spec = SystemSpec(np.array([[1e39]]), (np.eye(1),))
        u1 = np.array([1.0], dtype=complex)
        with pytest.raises(OverflowError, match=r"^the moment sums overflowed by step 2; "):
            simulate_discrete(spec, u1, u1, SimulationConfig(paths=4, seed=0, horizon=2))

    def test_path_budget_checked_before_any_block(self, monkeypatch):
        def no_blocks(*args):
            raise AssertionError("a block started for an over-budget run")

        monkeypatch.setattr("kronspec.montecarlo._substream", no_blocks)
        monkeypatch.setattr("kronspec.montecarlo._draw_noise", no_blocks)
        spec = SystemSpec(np.array([[0.5]]))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=10 ** 12, seed=0, horizon=1)
        with pytest.raises(ValueError, match="multiply-adds, over the budget"):
            simulate_discrete(spec, u1, u1, cfg)

    def test_work_budget_counts_the_dimension(self, monkeypatch):
        # 1e5 paths x 20 steps is 2e6 path-steps, but at d = 64, m = 1 each
        # path-step costs 2 * (64**2 + 32) multiply-adds: 1.65e10 in all
        def no_blocks(*args):
            raise AssertionError("a block started for an over-budget run")

        monkeypatch.setattr("kronspec.montecarlo._substream", no_blocks)
        monkeypatch.setattr("kronspec.montecarlo._draw_noise", no_blocks)
        spec = SystemSpec(0.5 * np.eye(64), (0.1 * np.eye(64),))
        u = np.eye(64, dtype=complex)[0]
        cfg = SimulationConfig(paths=100_000, seed=0, horizon=20)
        with pytest.raises(ValueError, match="multiply-adds, over the budget"):
            simulate_discrete(spec, u, u, cfg)

    def test_work_budget_charges_each_noise_channel(self, monkeypatch):
        # 1e9 path-steps at d = 1, m = 7 are 8e9 products of one multiply-add,
        # but each path-step draws 7 noise values: about 160 s of work
        monkeypatch.setattr("kronspec.montecarlo._substream", _fail)
        monkeypatch.setattr("kronspec.montecarlo._draw_noise", _fail)
        spec = SystemSpec(np.array([[0.5]]), tuple(0.1 * np.eye(1) for _ in range(7)))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=1_000_000, seed=0, horizon=1000)
        with pytest.raises(ValueError, match="multiply-adds, over the budget"):
            simulate_discrete(spec, u1, u1, cfg)

    def test_exact_recursion_priced_before_any_path(self, monkeypatch):
        # 800000 steps of the demo system's exact recursion cost 1.05e11
        # multiply-adds: refused before the paths, not after them
        monkeypatch.setattr("kronspec.montecarlo._simulate", _fail)
        cfg = SimulationConfig(paths=2, seed=0, horizon=800_000)
        with pytest.raises(ValueError, match=r"^the recursion to step 800000 needs 8e\+05 "
                           r"map applications, 1.05e\+11 multiply-adds, over the budget of 1e\+11$"):
            simulate_discrete(demo_system(0.5, 0.7, 2.0), U2, U2, cfg)

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

    @pytest.mark.parametrize("system", ["demo", "complex d=3, m=2"])
    def test_matches_the_exact_moments_of_the_sampled_process(self, system):
        # Euler-Maruyama is the discrete recursion of (I + dt A, sqrt(dt) B_k),
        # whose covariance is exact: every entry within 4 SE, no dt allowance
        if system == "demo":
            spec, u, v = demo_system(0.5, 0.7, 2.0), U2, U2
        else:
            rng = np.random.default_rng(11)
            drawn = random_system(rng, 3, 2)
            spec = SystemSpec(0.5 * drawn.a, tuple(0.5 * b for b in drawn.noise_mats))
            u, v = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2.0)
        dt, horizon = 1e-2, 1.0
        moments = simulate_continuous(spec, u, v, SimulationConfig(
            paths=4000, seed=23, dt=dt, horizon=horizon))
        sampled = SystemSpec(np.eye(spec.d) + dt * spec.a,
                             tuple(np.sqrt(dt) * b for b in spec.noise_mats))
        exact = exact_covariance(sampled, "discrete", u, v, round(horizon / dt))
        # the floor only absorbs roundoff on entries with no variance
        tol = np.maximum(4.0 * moments.std_error, _ATOL_FLOOR * max(1.0, np.max(np.abs(exact))))
        assert np.all(np.abs(moments.mean_outer - exact) <= tol)

    @pytest.mark.parametrize("system", ["demo", "complex d=3, m=2, u != v"])
    def test_steps_its_euler_maruyama_system_bit_for_bit(self, system):
        # the continuous run is the discrete run of (I + dt A, sqrt(dt) B_k), built here apart
        if system == "demo":
            spec, u, v = demo_system(0.5, 0.7, 2.0), U2, U2
        else:
            rng = np.random.default_rng(5)
            spec = random_system(rng, 3, 2)
            u, v = (rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))) / np.sqrt(2.0)
        dt, steps = 1e-2, 100
        cont = simulate_continuous(spec, u, v, SimulationConfig(
            paths=3000, seed=29, dt=dt, horizon=steps * dt))
        sampled = SystemSpec(np.eye(spec.d, dtype=complex) + dt * spec.a,
                             tuple(np.sqrt(dt) * b for b in spec.noise_mats))
        disc = simulate_discrete(sampled, u, v, SimulationConfig(
            paths=3000, seed=29, horizon=steps))
        assert np.array_equal(cont.mean_outer, disc.mean_outer)
        assert np.array_equal(cont.std_error, disc.std_error)
        assert cont.second_moment == disc.second_moment
        assert cont.second_moment_se == disc.second_moment_se

    @pytest.mark.parametrize("a", [1e307, -1e307])
    @pytest.mark.filterwarnings("error")
    def test_overflowing_step_raises_before_any_path(self, a, monkeypatch):
        # I + dt A leaves double range; the Taylor price lets it through (beta = 0)
        monkeypatch.setattr("kronspec.montecarlo._simulate", _fail)
        spec = SystemSpec(np.array([[a]]))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=4, seed=0, dt=100.0, horizon=100.0)
        with pytest.raises(OverflowError,
                           match=r"^the Euler-Maruyama system at dt = 100 overflowed$"):
            simulate_continuous(spec, u1, u1, cfg)

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

    def test_exact_taylor_route_priced_before_any_path(self, monkeypatch):
        # A = diag(-4e5, 0) gives beta = 4e5: the Taylor propagation to t = 1
        # costs 2.91e11 multiply-adds, refused before a million steps of paths
        monkeypatch.setattr("kronspec.montecarlo._simulate", _fail)
        spec = SystemSpec(np.diag([-4e5, 0.0]), (1e-3 * np.eye(2),))
        cfg = SimulationConfig(paths=2, seed=0, dt=1e-6, horizon=1.0)
        with pytest.raises(ValueError, match=r"^Taylor propagation needs 2\.22e\+06 map "
                           r"applications, 2\.91e\+11 multiply-adds \(beta = 4e\+05, "
                           r"mu = -4e\+05\), over the budget of 1e\+11$"):
            simulate_continuous(spec, U2, U2, cfg)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the 10 dt allowance is not a bound "
                       "on the Euler-Maruyama bias, which is about 3.6 here")
    def test_low_noise_scalar_growth_passes(self):
        # the paths follow the sampled chain's exact law, yet entry (0, 0)
        # misses the continuous exact value by 3.84 against a tolerance of 0.72
        spec = SystemSpec(np.array([[3.0]]), (np.array([[0.01]]),))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=2000, seed=17, dt=1e-3, horizon=1.0)
        moments = simulate_continuous(spec, u1, u1, cfg)
        assert compare_to_exact(moments, spec, u1, u1).all_passed

    def test_step_budget_checked_before_any_noise(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("noise drawn for an over-budget run")

        monkeypatch.setattr("kronspec.montecarlo._draw_noise", no_draws)
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=100, seed=0, dt=1e-300, horizon=1.0)
        with pytest.raises(ValueError, match="budget"):
            simulate_continuous(spec, U2, U2, cfg)


@pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_x_paths_do_not_depend_on_v(mode, noise):
    # x rides on top of y in one stacked array; its moments must not see v
    spec = demo_system(0.5, 0.7, 2.0)
    v = np.array([0.3, -1.0], dtype=complex)
    if mode == "discrete":
        simulate, cfg = simulate_discrete, SimulationConfig(paths=2000, seed=5, noise=noise,
                                                            horizon=10)
    else:
        simulate, cfg = simulate_continuous, SimulationConfig(paths=2000, seed=5, noise=noise,
                                                              dt=0.01, horizon=1.0)
    uv = simulate(spec, U2, v, cfg)
    uu = simulate(spec, U2, U2, cfg)
    assert uv.second_moment == uu.second_moment
    assert uv.second_moment_se == uu.second_moment_se


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

    @pytest.mark.parametrize("m, steps", [(1, 64), (2, 32), (7, 8), (64, 1)])
    def test_noise_chunk_holds_at_most_64_mib(self, m, steps):
        assert _chunk_steps(m, BLOCK_PATHS) == steps
        assert 8 * steps * m * BLOCK_PATHS <= 2 ** 23
        # two blocks in flight share the cap
        assert _chunk_steps(m, 2 * BLOCK_PATHS) == max(steps // 2, 1)

    def test_noise_of_blocks_in_flight_stays_within_the_cap(self, monkeypatch):
        # two blocks at a time, 32 steps of noise each per draw: 8 MiB in all,
        # which must be freed before the next draw
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=3 * BLOCK_PATHS, seed=4, horizon=100)
        path_buffers = 2 * 3 * 2 * BLOCK_PATHS * 8  # 2 blocks x 3 (1, 2, bsize) float64s
        simulate_discrete(spec, U2, U2, SimulationConfig(paths=2, seed=0, horizon=1))  # imports
        tracemalloc.start()
        try:
            simulate_discrete(spec, U2, U2, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 23 + 2 * path_buffers

    @pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("cap", [1, 8 * 3 * 300 * 3])  # 1 and 2 steps per chunk
    def test_small_noise_chunks_leave_seeded_moments_unchanged(self, noise, cap, monkeypatch):
        rng = np.random.default_rng(5)
        spec = SystemSpec(0.3 * rng.standard_normal((2, 2)),
                          tuple(0.3 * rng.standard_normal((2, 2)) for _ in range(3)))
        v = np.array([0.6, -0.8], dtype=complex)
        cfg = SimulationConfig(paths=300, seed=9, noise=noise, horizon=40)
        whole = simulate_discrete(spec, U2, v, cfg)
        monkeypatch.setattr("kronspec.montecarlo._NOISE_CHUNK_BYTES", cap)
        split = simulate_discrete(spec, U2, v, cfg)
        assert np.array_equal(whole.mean_outer, split.mean_outer)
        assert np.array_equal(whole.std_error, split.std_error)
        assert whole.second_moment == split.second_moment


class TestParallelBlocks:
    @pytest.mark.parametrize("noise", ["gaussian", "rademacher"])
    def test_moments_do_not_depend_on_the_cpu_count(self, noise, monkeypatch):
        # complex u != v over three blocks, the last one odd-sized
        rng = np.random.default_rng(8)

        def cgauss():
            return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))

        spec = SystemSpec(0.4 * cgauss(), tuple(0.3 * cgauss() for _ in range(3)))
        v = np.array([0.6, -0.8j])
        cfg = SimulationConfig(paths=2 * BLOCK_PATHS + 333, seed=12, noise=noise, horizon=40)
        runs = []
        for cpus in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            runs.append(simulate_discrete(spec, U2, v, cfg))
        one, four = runs
        assert np.array_equal(one.mean_outer, four.mean_outer)
        assert np.array_equal(one.std_error, four.std_error)
        assert (one.second_moment, one.second_moment_se) == (four.second_moment,
                                                            four.second_moment_se)

    def test_group_path_buffers_stay_within_the_cap(self, monkeypatch):
        # complex u != v.  d = 22: 64-path panels and 33 MiB of path buffers
        # per block, so eight CPUs run three blocks at a time rather than all
        # eight at once.  d = 32: each panel is a whole block, whose products
        # may thread, so one block runs at a time at any CPU count
        widths, blocks = _spy_on_workers(monkeypatch)
        for d in (22, 32):
            spec = random_system(np.random.default_rng(6), d, 1)
            spec = SystemSpec(spec.a / np.sqrt(2 * d), (spec.noise_mats[0] / np.sqrt(2 * d),))
            u, v = np.eye(d)[0], 1j * np.eye(d)[1]
            cfg = SimulationConfig(paths=7 * BLOCK_PATHS + 2, seed=6, horizon=2)
            widths.clear()
            runs = []
            for cpus in (1, 8):
                monkeypatch.setattr(montecarlo, "_usable_cpus", lambda n=cpus: n)
                blocks.clear()
                runs.append(simulate_discrete(spec, u, v, cfg))
                assert len(blocks) == 8
            if d == 22:
                assert _tile_paths(np.stack((u, v)), BLOCK_PATHS) == (64, False)
                assert widths[0] == 1 and 1 < widths[1] < 8
                assert widths[1] * 3 * 2 * d * BLOCK_PATHS * 16 <= _GROUP_BYTES
            else:
                assert widths == [1, 1]
            one, eight = runs
            assert np.array_equal(one.mean_outer, eight.mean_outer)
            assert np.array_equal(one.std_error, eight.std_error)
            assert (one.second_moment, one.second_moment_se) == (eight.second_moment,
                                                                 eight.second_moment_se)

    def test_more_workers_than_cores_with_frequent_switches(self, monkeypatch):
        # six workers over six blocks, switching threads every 10 us: any
        # state the blocks shared would show up as a changed sum.  Complex
        # u != v takes 8192-path panels; the real demo, u = v, one
        # whole-block panel per block, within the product limit
        spec = demo_system(0.5, 0.7, 2.0)
        cfg = SimulationConfig(paths=5 * BLOCK_PATHS + 5, seed=2, horizon=12)
        assert _tile_paths(U2.real[None], BLOCK_PATHS) == (BLOCK_PATHS, False)
        widths, _ = _spy_on_workers(monkeypatch)
        for v in (np.array([0.6, -0.8j]), U2):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
            one = simulate_discrete(spec, U2, v, cfg)
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
            widths.clear()
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                many = simulate_discrete(spec, U2, v, cfg)
            finally:
                sys.setswitchinterval(interval)
            assert widths == [6]
            assert np.array_equal(one.mean_outer, many.mean_outer)
            assert np.array_equal(one.std_error, many.std_error)
            assert (one.second_moment, one.second_moment_se) == (many.second_moment,
                                                                 many.second_moment_se)

    def test_overflow_cancels_the_blocks_not_yet_started(self, monkeypatch):
        # one worker, eight blocks: block 0 overflows by step 256, and at most
        # the block its worker picked up meanwhile runs after it
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
        _, blocks = _spy_on_workers(monkeypatch)
        spec = SystemSpec(np.array([[1e3]]), (np.eye(1),))
        u1 = np.array([1.0], dtype=complex)
        cfg = SimulationConfig(paths=7 * BLOCK_PATHS + 8, seed=1, horizon=600)
        with pytest.raises(OverflowError,
                           match=rf"^{BLOCK_PATHS} path\(s\) overflowed by step 256; "):
            simulate_discrete(spec, u1, u1, cfg)
        assert 1 <= len(blocks) <= 2

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_real_paths_match_complex_paths(self, mode, monkeypatch):
        # e^{i pi/4} u forces complex arithmetic and leaves x x* unchanged in exact arithmetic
        dtypes = set()
        monkeypatch.setattr("kronspec.montecarlo._block_sums",
                            lambda paths: dtypes.add(paths.dtype) or _block_sums(paths))
        spec = demo_system(0.5, 0.7, 2.0)
        if mode == "discrete":
            simulate, cfg = simulate_discrete, SimulationConfig(paths=20_000, seed=3, horizon=10)
        else:
            simulate, cfg = simulate_continuous, SimulationConfig(paths=20_000, seed=3, dt=0.01,
                                                                  horizon=1.0)
        real = simulate(spec, U2, U2, cfg)
        assert dtypes == {np.dtype(np.float64)}
        dtypes.clear()
        turned = np.exp(1j * np.pi / 4) * U2
        cplx = simulate(spec, turned, turned, cfg)
        assert dtypes == {np.dtype(np.complex128)}
        scale = np.max(np.abs(cplx.mean_outer))
        assert np.max(np.abs(real.mean_outer - cplx.mean_outer)) <= 1e-12 * scale
        assert np.allclose(real.std_error, cplx.std_error, rtol=1e-12, atol=1e-12 * scale)
        assert real.second_moment == pytest.approx(cplx.second_moment, rel=1e-12)


class TestTiles:
    @pytest.mark.parametrize("d, cplx, size, tile", [
        (8, True, BLOCK_PATHS, 512),
        (8, False, BLOCK_PATHS, 2048),
        (16, True, BLOCK_PATHS, 128),
        (2, True, BLOCK_PATHS, 8192),
        (2, False, BLOCK_PATHS, BLOCK_PATHS),  # the demo: a tile would hold the whole block
        (8, True, 512, 512),
        (8, True, 513, 512),
        (24, True, BLOCK_PATHS, BLOCK_PATHS),  # 56 paths, under the 64-path floor
        (32, True, BLOCK_PATHS, BLOCK_PATHS),  # 32 paths
        (64, False, BLOCK_PATHS, BLOCK_PATHS),
        (22, True, BLOCK_PATHS, 64),  # 67 paths
        (23, True, BLOCK_PATHS, BLOCK_PATHS),  # 61 paths
        (24, True, 56, 56),  # a last block within the limit
        (24, True, 57, 57),  # one path past it
        (45, False, BLOCK_PATHS, 64),  # 64 paths
        (46, False, BLOCK_PATHS, BLOCK_PATHS),  # 61 paths
    ])
    def test_tile_is_the_largest_power_of_two_within_the_product_limit(self, d, cplx, size,
                                                                       tile):
        # only a panel whose product passes the limit may thread
        starts = np.zeros((2, d), dtype=np.complex128 if cplx else np.float64)
        threads = d * d * tile * (4 if cplx else 1) > montecarlo._TILE_MULADDS
        assert _tile_paths(starts, size) == (tile, threads)

    @pytest.mark.parametrize("d, cplx, s, size, panel, sweep", [
        (8, True, 2, BLOCK_PATHS, 512, 2048),
        (8, True, 1, BLOCK_PATHS, 512, 4096),
        (4, True, 2, BLOCK_PATHS, 2048, 4096),
        (16, True, 2, BLOCK_PATHS, 128, 1024),
        (8, True, 2, 513, 512, 513),  # the sweep spans the block: panels of 512 and 1
        (2, True, 1, BLOCK_PATHS, 8192, BLOCK_PATHS),  # a sweep of two panels spans the block
        (2, False, 1, BLOCK_PATHS, BLOCK_PATHS, BLOCK_PATHS),  # the demo: a whole-block panel
        (24, True, 2, BLOCK_PATHS, BLOCK_PATHS, BLOCK_PATHS),  # under the 64-path floor
    ])
    def test_sweep_is_the_largest_power_of_two_within_its_bytes(self, d, cplx, s, size, panel,
                                                                sweep):
        starts = np.zeros((s, d), dtype=np.complex128 if cplx else np.float64)
        assert (_tile_paths(starts, size)[0], _sweep_paths(starts, size)) == (panel, sweep)
        assert sweep == size or starts.nbytes * sweep == montecarlo._SWEEP_BYTES

    def test_a_whole_block_tile_holds_three_stacks(self):
        # complex d = 24, u != v: T = 32 is under the floor, so the tile is the
        # whole block, and its first buffer must be the block itself
        rng = np.random.default_rng(30)
        d, m, size, steps = 24, 2, 2048, 64
        starts = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        a_step, *noise_mats = (0.3 * random_system(rng, d, 0).a / np.sqrt(d) for _ in range(m + 1))
        assert _tile_paths(starts, size) == (size, True)
        montecarlo._run_block(_substream(1, 0), 64, "gaussian", 1, starts, a_step, noise_mats,
                              1)  # imports
        tracemalloc.start()
        try:
            montecarlo._run_block(_substream(1, 0), size, "gaussian", steps, starts, a_step,
                                  noise_mats, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 256 KiB covers what numpy allocates inside the steps (164 KiB here)
        stack, chunk = starts.nbytes * size, 8 * steps * m * size
        assert peak <= 3 * stack + chunk + 2 ** 18

    def test_a_lock_free_block_holds_its_stack_and_three_sweeps(self):
        # complex d = 8, u != v: 512-path panels in 2048-path sweeps, so the
        # block holds three sweep buffers beside itself, not three stacks
        rng = np.random.default_rng(31)
        d, m, size, steps = 8, 2, 8192, 16
        starts = rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d))
        a_step, *noise_mats = (0.3 * random_system(rng, d, 0).a / np.sqrt(d) for _ in range(m + 1))
        assert (_tile_paths(starts, size), _sweep_paths(starts, size)) == ((512, False), 2048)
        montecarlo._run_block(_substream(1, 0), 64, "gaussian", 1, starts, a_step, noise_mats,
                              1)  # imports
        tracemalloc.start()
        try:
            montecarlo._run_block(_substream(1, 0), size, "gaussian", steps, starts, a_step,
                                  noise_mats, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 256 KiB covers what numpy allocates inside the steps (165 KiB here)
        stack, chunk = starts.nbytes * size, 8 * steps * m * size
        assert peak <= stack + 3 * montecarlo._SWEEP_BYTES + chunk + 2 ** 18

    @pytest.mark.parametrize("u, noise_mats", [
        (U2.real, (np.array([[0.0, 0.0], [2.0, 0.0]]),)),  # the demo: a whole-block panel
        (U2, (np.array([[0.3, 0.2j], [0.1, 0.4]]),)),  # d = 2, s = 1: a sweep of two panels
    ])
    def test_a_sweep_that_spans_the_block_copies_nothing_back(self, u, noise_mats, monkeypatch):
        # one-step chunks: each ends on an odd step count, with the block's
        # paths in the second buffer
        spec = SystemSpec(np.diag([0.5, 0.7]).astype(complex), noise_mats)
        cfg = SimulationConfig(paths=BLOCK_PATHS, seed=8, horizon=7)
        starts = np.stack((u,))
        assert _sweep_paths(starts, BLOCK_PATHS) == BLOCK_PATHS
        whole = simulate_discrete(spec, u, u, cfg)
        monkeypatch.setattr(montecarlo, "_NOISE_CHUNK_BYTES", 1)
        assert _chunk_steps(1, BLOCK_PATHS) == 1
        copies = []
        copyto = np.copyto

        def spy(dst, src, *args, **kwargs):
            if dst.ctypes.data != src.ctypes.data:
                copies.append(dst.shape)
            return copyto(dst, src, *args, **kwargs)

        monkeypatch.setattr(np, "copyto", spy)
        split = simulate_discrete(spec, u, u, cfg)
        assert copies == []
        assert np.array_equal(whole.mean_outer, split.mean_outer)
        assert np.array_equal(whole.std_error, split.std_error)
        assert (whole.second_moment, whole.second_moment_se) == (split.second_moment,
                                                                 split.second_moment_se)

    def test_tiles_leave_seeded_moments_unchanged_at_any_worker_count(self, monkeypatch):
        # complex d = 8, u != v over three blocks; the last, 333 paths, ends in
        # a ragged tile at each width under it and is one whole-block tile above it
        rng = np.random.default_rng(29)
        d = 8
        spec = random_system(rng, d, 2)
        spec = SystemSpec(0.6 * spec.a / np.sqrt(d),
                          tuple(0.3 * b / np.sqrt(d) for b in spec.noise_mats))
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        cfg = SimulationConfig(paths=2 * BLOCK_PATHS + 333, seed=21, horizon=20)
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        widths, _ = _spy_on_workers(monkeypatch)
        run_block = montecarlo._run_block
        blocks = []

        def spy(rng, size, kind, n, starts, a_step, noise_mats, stride):
            sums = run_block(rng, size, kind, n, starts, a_step, noise_mats, stride)
            blocks.append((size, _tile_paths(starts, size)[0], _sweep_paths(starts, size)))
            return sums

        monkeypatch.setattr(montecarlo, "_run_block", spy)
        # 2**13 gives 32-path tiles, under the floor: whole-block tiles like
        # 2**30, but only these pass the limit, so their three blocks run on
        # one worker and every other limit's on three.  Sweep budgets: 1 byte
        # is one panel per sweep, 2**40 the whole block
        runs = {}
        for limit in (2 ** 30, 2 ** 13, 2 ** 14, 2 ** 15, 2 ** 16, 2 ** 17):
            monkeypatch.setattr(montecarlo, "_TILE_MULADDS", limit)
            tile = limit // (4 * d * d)
            for budget in (1, 2 ** 19, 2 ** 40):
                monkeypatch.setattr(montecarlo, "_SWEEP_BYTES", budget)
                blocks.clear()
                widths.clear()
                runs[limit, budget] = simulate_discrete(spec, u, v, cfg)
                assert widths == [1 if tile < montecarlo._MIN_TILE else 3]
                assert sorted(size for size, *_ in blocks) == [333, BLOCK_PATHS, BLOCK_PATHS]
                for size, panel, sweep in blocks:
                    widest = {1: panel, 2 ** 19: max(2048, panel), 2 ** 40: size}[budget]
                    assert sweep == min(widest, size)
        full = runs.pop((2 ** 30, 2 ** 19))
        assert compare_to_exact(full, spec, u, v).all_passed
        for moments in runs.values():
            assert np.array_equal(moments.mean_outer, full.mean_outer)
            assert np.array_equal(moments.std_error, full.std_error)
            assert (moments.second_moment, moments.second_moment_se) == (full.second_moment,
                                                                         full.second_moment_se)
