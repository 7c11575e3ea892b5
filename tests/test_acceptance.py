"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest
from scipy.stats import ortho_group

from conftest import kron_sum, random_system, second_moment_bounds
from kronspec.cli import demo_system
from kronspec.evolution import (
    max_relative_discrepancy,
    propagate_continuous,
    propagate_discrete,
)
from kronspec.kronsum import (
    UNSTABLE_STATUSES,
    StabilityStatus,
    build_continuous_gram,
    build_continuous_sum,
    build_discrete_gram,
    build_discrete_sum,
    classify_stability,
)
from kronspec.matrices import SystemSpec
from kronspec.montecarlo import SimulationConfig, compare_to_exact, simulate_continuous, simulate_discrete
from kronspec.spectral import hermitian_extremes, summarize


def _report(name, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"[{status}] {name} ({elapsed:.2f}s / limit {limit:.0f}s){suffix}")


def _shared_systems(count=200, seed=424242):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        d = 2 + i % 4
        m = i % 4
        spec = random_system(rng, d, m)
        u = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
        v = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
        out.append((spec, u, v))
    return out


def test_criterion_1_worked_example_closed_forms():
    limit = 1.0
    t0 = time.perf_counter()
    a, b, s = 0.5, 0.7, 2.0
    spec = demo_system(a, b, s)
    got = {
        "rho(D)": summarize(kron_sum(spec, "discrete")).radius,
        "alpha(C)": summarize(kron_sum(spec, "continuous")).abscissa,
        "min(N)": hermitian_extremes(build_discrete_gram(spec))[0],
        "max(N)": hermitian_extremes(build_discrete_gram(spec))[1],
        "min(M)": hermitian_extremes(build_continuous_gram(spec))[0],
        "max(M)": hermitian_extremes(build_continuous_gram(spec))[1],
    }
    want = {
        "rho(D)": max(a * a, b * b),
        "alpha(C)": max(2 * a, 2 * b),
        "min(N)": min(a * a + s * s, b * b),
        "max(N)": max(a * a + s * s, b * b),
        "min(M)": min(2 * a + s * s, 2 * b),
        "max(M)": max(2 * a + s * s, 2 * b),
    }
    errors = {k: abs(got[k] - want[k]) for k in want}
    elapsed = time.perf_counter() - t0
    ok = max(errors.values()) <= 1e-10 and elapsed < limit
    _report("criterion 1: worked-example closed forms", ok, elapsed, limit,
            f"max err {max(errors.values()):.2e}")
    assert ok, errors


def test_criterion_2_scalar_companion_pins_exact_values():
    limit = 10.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_radius = 0.0
    for i in range(50):
        d = 2 + i % 3
        a = ortho_group.rvs(d, random_state=rng)
        b = ortho_group.rvs(d, random_state=rng)
        rho = summarize(kron_sum(SystemSpec(a, (b,)), "discrete")).radius
        worst_radius = max(worst_radius, abs(rho - 2.0))
    worst_abscissa = 0.0
    for a_val in (-1.0, 0.0, 0.3):
        for d in (2, 3, 4):
            g = rng.standard_normal((d, d))
            spec = SystemSpec(a_val * np.eye(d) + (g - g.T),
                              (ortho_group.rvs(d, random_state=rng),))
            alpha = summarize(kron_sum(spec, "continuous")).abscissa
            worst_abscissa = max(worst_abscissa, abs(alpha - (2 * a_val + 1)))
    elapsed = time.perf_counter() - t0
    ok = worst_radius <= 1e-8 and worst_abscissa <= 1e-8 and elapsed < limit
    _report("criterion 2: scalar companion pins the exact value", ok, elapsed, limit,
            f"worst |rho-2| {worst_radius:.2e}, worst |alpha-(2a+1)| {worst_abscissa:.2e}")
    assert ok


def test_criterion_3_bound_chain_property_suite():
    limit = 60.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    slack = 1e-8
    violations = 0
    for i in range(1000):
        spec = random_system(rng, 2 + i % 4, i % 4)
        rd = classify_stability(spec, "discrete").evidence
        rc = classify_stability(spec, "continuous").evidence
        rho = summarize(kron_sum(spec, "discrete")).radius
        alpha = summarize(kron_sum(spec, "continuous")).abscissa
        if not (rd.lower - slack <= rho <= rd.upper + slack):
            violations += 1
        if not (rc.lower - slack <= alpha <= rc.upper + slack):
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < limit
    _report("criterion 3: bound chains on 1000 random systems", ok, elapsed, limit,
            f"{violations} violations")
    assert ok


def test_criterion_4_dual_route_covariance_oracle():
    limit = 60.0
    t0 = time.perf_counter()
    worst_discrete = 0.0
    worst_continuous = 0.0
    for spec, u, v in _shared_systems():
        direct = propagate_discrete(spec, u, v, 10, "direct")
        kron_d = propagate_discrete(spec, u, v, 10, "kronecker")
        worst_discrete = max(worst_discrete, max_relative_discrepancy(direct, kron_d))
        ode = propagate_continuous(spec, u, v, [0.25, 1.0], "ode")
        kron_c = propagate_continuous(spec, u, v, [0.25, 1.0], "kronecker")
        worst_continuous = max(worst_continuous, max_relative_discrepancy(ode, kron_c))
    elapsed = time.perf_counter() - t0
    ok = worst_discrete <= 1e-8 and worst_continuous <= 1e-6 and elapsed < limit
    _report("criterion 4: dual-route covariance oracle", ok, elapsed, limit,
            f"discrete {worst_discrete:.2e}, continuous {worst_continuous:.2e}")
    assert ok


def test_criterion_5_second_moment_envelopes():
    limit = 30.0
    t0 = time.perf_counter()
    checked = 0
    # the bound functions raise ConsistencyError themselves on violation
    for spec, u, _ in _shared_systems():
        res = second_moment_bounds(spec, "discrete", u, 10, rel_tol=1e-6)
        assert res.lower <= res.upper
        checked += 1
        for t in (0.25, 1.0):
            res = second_moment_bounds(spec, "continuous", u, t, rel_tol=1e-6)
            assert res.lower <= res.upper
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 600 and elapsed < limit
    _report("criterion 5: second-moment envelopes", ok, elapsed, limit,
            f"{checked} chains checked")
    assert ok


def test_criterion_6_monte_carlo_validation():
    limit = 120.0
    t0 = time.perf_counter()
    spec = demo_system(0.5, 0.7, 2.0)
    u = np.array([1.0, 0.0], dtype=complex)
    total_entries = 0
    passed_entries = 0
    for seed in range(20):
        m_d = simulate_discrete(spec, u, u, SimulationConfig(paths=100_000, seed=seed, horizon=10))
        cmp_d = compare_to_exact(m_d, spec, u, u)
        m_c = simulate_continuous(
            spec, u, u, SimulationConfig(paths=100_000, seed=seed, dt=1e-3, horizon=1.0)
        )
        cmp_c = compare_to_exact(m_c, spec, u, u)
        for comparison in (cmp_d, cmp_c):
            for entry in comparison.entry_pass:
                total_entries += entry.size
                passed_entries += int(np.count_nonzero(entry))
    elapsed = time.perf_counter() - t0
    rate = passed_entries / total_entries
    ok = rate >= 0.95 and elapsed < limit
    _report("criterion 6: Monte Carlo vs exact, 20 seeds", ok, elapsed, limit,
            f"{passed_entries}/{total_entries} entries within tolerance ({rate:.1%})")
    assert ok


def test_criterion_7_bound_vs_full_spectrum_benchmark():
    limit = 120.0  # qualitative criterion; generous wall-clock guard
    t0 = time.perf_counter()
    d, trials = 32, 2
    bound_times, full_times, gaps = [], [], []
    for trial in range(trials + 1):  # first iteration warms up and is discarded
        rng = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(d, trial)))
        spec = random_system(rng, d, 1)
        t1 = time.perf_counter()
        _, upper_n = hermitian_extremes(build_discrete_gram(spec))
        _, upper_m = hermitian_extremes(build_continuous_gram(spec))
        t_bound = time.perf_counter() - t1
        t1 = time.perf_counter()
        rho = summarize(build_discrete_sum(spec)).radius
        alpha = summarize(build_continuous_sum(spec)).abscissa
        t_full = time.perf_counter() - t1
        if trial == 0:
            continue
        bound_times.append(t_bound)
        full_times.append(t_full)
        gaps.append(
            (trial, (upper_n - rho) / abs(rho), (upper_m - alpha) / abs(alpha))
        )
    ratio = np.median(full_times) / np.median(bound_times)
    elapsed = time.perf_counter() - t0
    ok = ratio >= 10.0 and elapsed < limit
    print("tightness gaps at d=32 (trial, discrete, continuous), reported not asserted:")
    for trial, gd, gc in gaps:
        print(f"  trial {trial}: gap_rho={gd:.4g}  gap_alpha={gc:.4g}")
    _report("criterion 7: d-by-d bounds vs d^2-by-d^2 spectra at d=32", ok, elapsed, limit,
            f"speedup {ratio:.0f}x")
    assert ok


def test_criterion_8_stability_truth_table():
    limit = 30.0
    t0 = time.perf_counter()
    grid = (-1.5, -0.5, 0.5, 1.5)
    failures = []
    for a in grid:
        for b in grid:
            for sigma in (0.0, 2.0):
                spec = demo_system(a, b, sigma)

                verdict = classify_stability(spec, "discrete", allow_exact_fallback=True)
                should_be_stable = max(abs(a), abs(b)) < 1
                is_stable = verdict.status in (StabilityStatus.CERTIFIED_STABLE,
                                               StabilityStatus.EXACT_STABLE)
                is_unstable = verdict.status in UNSTABLE_STATUSES
                if is_stable != should_be_stable or is_unstable == should_be_stable:
                    failures.append(("discrete", a, b, sigma, verdict.status))
                if min(a * a + sigma * sigma, b * b) > 1 and (
                    verdict.status is not StabilityStatus.CERTIFIED_UNSTABLE
                ):
                    failures.append(("discrete-certificate", a, b, sigma, verdict.status))

                verdict = classify_stability(spec, "continuous", allow_exact_fallback=True)
                should_be_stable = max(a, b) < 0
                is_stable = verdict.status in (StabilityStatus.CERTIFIED_STABLE,
                                               StabilityStatus.EXACT_STABLE)
                is_unstable = verdict.status in UNSTABLE_STATUSES
                if is_stable != should_be_stable or is_unstable == should_be_stable:
                    failures.append(("continuous", a, b, sigma, verdict.status))
                if min(2 * a + sigma * sigma, 2 * b) > 0 and (
                    verdict.status is not StabilityStatus.CERTIFIED_UNSTABLE
                ):
                    failures.append(("continuous-certificate", a, b, sigma, verdict.status))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < limit
    _report("criterion 8: stability classifier truth table", ok, elapsed, limit,
            f"{len(failures)} mismatches over {len(grid) ** 2 * 2 * 2} verdicts")
    assert ok, failures
