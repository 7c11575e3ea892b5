import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ortho_group, unitary_group

from conftest import kron_sum, mixed_direct_sum, random_system, real_form
from kronspec import kronsum
from kronspec.cli import demo_system
from kronspec.kronsum import (
    BOUNDARY_TOL,
    CHAIN_TOL,
    UNSTABLE_STATUSES,
    BoundReport,
    StabilityStatus,
    _bracket_at,
    _closed_form,
    _power_bracket,
    _refined_bracket,
    adjoint_moment_map,
    build_continuous_gram,
    build_continuous_sum,
    build_discrete_gram,
    build_discrete_sum,
    check_bound_chain,
    classify_stability,
    second_moment_map,
    stability_threshold,
    verdict_from_report,
)
from kronspec.matrices import (
    ConsistencyError,
    SystemSpec,
    is_hermitian,
    real_unvec,
    real_vec,
)
from kronspec.spectral import eigenvalues, hermitian_extremes, summarize


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


_BUILD = {"discrete": build_discrete_sum, "continuous": build_continuous_sum}


def _dense_value(spec, mode):
    """The dense oracle: rho(D) or alpha(C) from the full d**2 spectrum of the np.kron formula."""
    summary = summarize(kron_sum(spec, mode))
    return summary.radius if mode == "discrete" else summary.abscissa


def _rung3(engine, *args):
    """A rung-3 function called under the error state ``classify_stability`` gives it."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return engine(*args)


def _power(spec):
    """Rung 3's power method on the system's Phi*."""
    return _rung3(_power_bracket, adjoint_moment_map(spec, "discrete"), spec.d)


def _arnoldi(spec, mode, budget=kronsum._MAX_STEPS):
    """Rung 3's Arnoldi on the system's Phi* or L*."""
    return _rung3(_refined_bracket, adjoint_moment_map(spec, mode), spec.d, budget)


def _assert_multiset_close(got, want, tol):
    got = list(np.asarray(got))
    assert len(got) == len(want)
    for w in want:
        gaps = [abs(g - w) for g in got]
        best = int(np.argmin(gaps))
        assert gaps[best] <= tol
        got.pop(best)


class TestBuilders:
    def test_demo_discrete_sum(self):
        a, b, s = 0.5, 0.7, 2.0
        expected = np.array(
            [
                [a * a, 0, 0, 0],
                [0, a * b, 0, 0],
                [0, 0, a * b, 0],
                [s * s, 0, 0, b * b],
            ]
        )
        assert np.allclose(build_discrete_sum(demo_system(a, b, s)), expected, atol=1e-14)

    def test_demo_continuous_sum(self):
        a, b, s = 0.5, 0.7, 2.0
        expected = np.array(
            [
                [2 * a, 0, 0, 0],
                [0, a + b, 0, 0],
                [0, 0, a + b, 0],
                [s * s, 0, 0, 2 * b],
            ]
        )
        assert np.allclose(build_continuous_sum(demo_system(a, b, s)), expected, atol=1e-14)

    def test_demo_grams(self):
        a, b, s = 0.5, 0.7, 2.0
        spec = demo_system(a, b, s)
        assert np.allclose(build_discrete_gram(spec), np.diag([a * a + s * s, b * b]), atol=1e-14)
        assert np.allclose(build_continuous_gram(spec), np.diag([2 * a + s * s, 2 * b]), atol=1e-14)

    def test_no_noise_discrete(self, crandn):
        a = crandn(3, 3)
        spec = SystemSpec(a)
        assert np.array_equal(build_discrete_sum(spec), real_form(np.kron(a.conj(), a)))

    def test_real_system_matches_entrywise_expansion(self, rng):
        # brute-force block expansion as an independent oracle
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2))
        got = build_discrete_sum(SystemSpec(a, (b,)))
        d = 2
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        want = a[i, j] * a[k, l] + b[i, j] * b[k, l]
                        assert got[i * d + k, j * d + l] == pytest.approx(want, abs=1e-14)

    def test_continuous_no_noise_eigenvalues_are_conjugate_pair_sums(self, crandn):
        a = crandn(3, 3)
        got = eigenvalues(build_continuous_sum(SystemSpec(a)))
        w = np.linalg.eigvals(a)
        brute = [la.conjugate() + mu for la in w for mu in w]
        _assert_multiset_close(got, brute, 1e-8)

    def test_zero_drift_reduces_continuous_to_noise_part(self, crandn):
        bs = (crandn(3, 3), crandn(3, 3))
        zero = np.zeros((3, 3))
        c = build_continuous_sum(SystemSpec(zero, bs))
        d = build_discrete_sum(SystemSpec(zero, bs))
        assert np.allclose(c, d, atol=1e-14)

    def test_conjugated_system_gives_conjugated_sum(self, crandn):
        # conj(H) = H^T has the coordinates Pi x, so conj(S) has the real form Pi R Pi
        a, b = crandn(3, 3), crandn(3, 3)
        lhs = build_discrete_sum(SystemSpec(a.conj(), (b.conj(),)))
        pi = np.arange(9).reshape(3, 3).T.ravel()
        rhs = build_discrete_sum(SystemSpec(a, (b,)))[np.ix_(pi, pi)]
        assert np.allclose(lhs, rhs, atol=1e-14)

    def test_gram_hermitian_psd(self, rng):
        for _ in range(30):
            spec = random_system(rng, int(rng.integers(2, 6)), int(rng.integers(0, 4)))
            n = build_discrete_gram(spec)
            assert is_hermitian(n)
            lo, _ = hermitian_extremes(n)
            assert lo >= -1e-10

    def test_hermitian_drift_no_noise_gram(self, crandn):
        g = crandn(3, 3)
        h = g + g.conj().T
        assert np.allclose(build_continuous_gram(SystemSpec(h)), 2 * h, atol=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("build", [build_discrete_sum, build_continuous_sum])
    def test_sum_overflow_raises_without_warning(self, build):
        spec = SystemSpec(np.array([[0.5]]), (np.array([[1e155]]),))
        with pytest.raises(OverflowError, match="overflowed"):
            build(spec)

    @pytest.mark.parametrize("kind", ["complex", "signed zeros", "real"])
    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 16])
    def test_equal_the_kron_formula_bit_for_bit(self, rng, d, m, kind):
        # R against the real form of the np.kron formula, at d where a slab
        # is one row and where it is a multi-row broadcast product
        spec = random_system(rng, d, m)
        if kind == "real":
            spec = SystemSpec(spec.a.real, tuple(b.real for b in spec.noise_mats))
        if kind == "signed zeros":
            def draw(x):
                # half the real parts zeros of either sign, every imaginary part +0 or -0
                out = np.empty((d, d), dtype=np.complex128)
                out.real = np.where(rng.random((d, d)) < 0.5, x.real, np.copysign(0.0, x.imag))
                out.imag = np.copysign(0.0, rng.standard_normal((d, d)))
                return out
            spec = SystemSpec(draw(spec.a), tuple(draw(b) for b in spec.noise_mats))
        for mode, build in _BUILD.items():
            got, want = build(spec), real_form(kron_sum(spec, mode))
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_holds_at_most_two_sums_at_once(self):
        # the sum and one scratch term, 1 MiB each at d = 16, plus numpy's
        # broadcasting buffers (about 256 KiB at any size)
        spec = random_system(np.random.default_rng(5), 16, 3)
        for build in (build_discrete_sum, build_continuous_sum):
            tracemalloc.start()
            try:
                build(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2 * 16 * 16 ** 4 + 2 ** 19

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_holds_the_real_form_and_two_slabs(self, mode):
        # R is 512 KiB at d = 16; the two complex slabs (128 KiB), the
        # finiteness check's boolean array (64 KiB) and small temporaries
        # came to about 280 KiB more, under the 512 KiB allowed
        spec = random_system(np.random.default_rng(5), 16, 3)
        tracemalloc.start()
        try:
            _BUILD[mode](spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 ** 4 + 2 ** 19


class TestRealSum:
    """R = Re S + Im S Pi: the builders give D and C as real matrices in Hermitian coordinates."""

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_spectral_values_match_the_complex_sum(self, rng, mode):
        for d in (2, 3, 5):
            for m in range(4):
                spec = random_system(rng, d, m)
                rmat = _BUILD[mode](spec)
                assert rmat.dtype == np.float64
                got, want = summarize(rmat), summarize(kron_sum(spec, mode))
                for key in ("radius", "abscissa"):
                    a, b = getattr(got, key), getattr(want, key)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), (d, m, key)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_real_system_gives_the_real_part_bit_for_bit(self, rng, mode):
        spec = SystemSpec(rng.standard_normal((4, 4)), (rng.standard_normal((4, 4)),))
        assert np.array_equal(_BUILD[mode](spec), kron_sum(spec, mode).real)

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_is_the_matrix_of_the_map_in_hermitian_coordinates(self, rng, crandn, mode):
        # R x_j = the coordinates of Phi(H_j) or L(H_j), for both Hermitian parts of V
        spec = random_system(rng, 4, 2)
        v = crandn(4, 4)
        got = _BUILD[mode](spec) @ real_vec(v)
        want = real_vec(second_moment_map(spec, mode)(v))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_coordinates_round_trip(self, rng, crandn):
        # small integers keep every sum and halving exact, so a general
        # complex V comes back bit for bit; Gaussian entries round to an ulp
        v = rng.integers(-9, 10, (5, 5)) + 1j * rng.integers(-9, 10, (5, 5))
        assert np.array_equal(real_unvec(real_vec(v), 5), v)
        v = crandn(5, 5)
        assert np.max(np.abs(real_unvec(real_vec(v), 5) - v)) <= 4e-16 * np.max(np.abs(v))

    @pytest.mark.filterwarnings("error")
    def test_round_trip_near_the_top_of_double_range(self):
        # every entry +-1e308 +- 1e308 i: each coordinate is finite, and so is
        # each sum on the way when the parts are halved before they are added
        # (off the diagonal the coordinates Re V_ij -+ Im V_ij can reach 2e308,
        # so this V is diagonal)
        entries = [complex(a, b) for a in (1e308, -1e308) for b in (1e308, -1e308)]
        for v in [np.array([[z]]) for z in entries] + [np.diag(entries)]:
            d = len(v)
            assert np.array_equal(real_unvec(real_vec(v), d), v)

    def test_hermitian_input_has_one_column(self, crandn):
        x = crandn(4, 4)
        h = x + x.conj().T
        coords = real_vec(h)
        assert np.array_equal(coords[:, 0], (h.real + h.imag).reshape(-1, order="F"))
        assert not np.any(coords[:, 1])
        # the coordinates are an isometry
        assert np.linalg.norm(coords[:, 0]) == pytest.approx(np.linalg.norm(h), rel=1e-15)

    @pytest.mark.parametrize("mode, name", [("discrete", "D"), ("continuous", "C")])
    def test_overflow_raises(self, mode, name):
        # |S| <= x**2 = 1.44e308 is finite, but R takes Re(b_00 conj(b_01)) +
        # Im(b_01 conj(b_00)) = sqrt(2) x**2 into one entry
        x = 1.2e154
        b = np.array([[x, x * np.exp(0.25j * np.pi)], [0.0, 0.0]])
        with pytest.raises(OverflowError, match=f"real form of {name} overflowed"):
            _BUILD[mode](SystemSpec(np.zeros((2, 2)), (b,)))


class TestBoundReport:
    def test_demo_discrete(self):
        spec = demo_system(0.5, 0.7, 2.0)
        rep = classify_stability(spec, "discrete").evidence
        assert rep.lower == pytest.approx(0.49, abs=1e-10)
        assert rep.upper == pytest.approx(4.25, abs=1e-10)
        assert rep.exact is None and rep.rung == "bounds"
        assert _dense_value(spec, "discrete") == pytest.approx(0.49, abs=1e-10)

    def test_demo_continuous(self):
        spec = demo_system(0.5, 0.7, 2.0)
        rep = classify_stability(spec, "continuous").evidence
        assert rep.lower == pytest.approx(1.4, abs=1e-10)
        assert rep.upper == pytest.approx(5.0, abs=1e-10)
        assert _dense_value(spec, "continuous") == pytest.approx(1.4, abs=1e-10)

    def test_identity_plus_rotation_is_tight(self):
        spec = SystemSpec(np.eye(2), (_rotation(0.3),))
        rep = classify_stability(spec, "discrete").evidence
        assert rep.lower == pytest.approx(2.0, abs=1e-10)
        assert rep.upper == pytest.approx(2.0, abs=1e-10)
        assert _dense_value(spec, "discrete") == pytest.approx(2.0, abs=1e-8)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            classify_stability(demo_system(0.5, 0.7, 2.0), "sideways")

    def test_chain_checker_raises_on_violation(self):
        with pytest.raises(ConsistencyError):
            check_bound_chain(BoundReport(lower=0.0, upper=1.0, exact=2.0, mode="discrete"))
        with pytest.raises(ConsistencyError):
            check_bound_chain(BoundReport(lower=1.0, upper=0.0, exact=None, mode="discrete"))


class TestBoundChains:
    def test_random_systems_respect_both_chains(self, rng):
        for i in range(200):
            spec = random_system(rng, 2 + i % 4, i % 4)
            rd = classify_stability(spec, "discrete").evidence
            rc = classify_stability(spec, "continuous").evidence
            slack_d = 1e-8 * max(1.0, abs(rd.upper))
            slack_c = 1e-8 * max(1.0, abs(rc.upper))
            assert rd.lower - slack_d <= _dense_value(spec, "discrete") <= rd.upper + slack_d
            assert rc.lower - slack_c <= _dense_value(spec, "continuous") <= rc.upper + slack_c

    def test_scalar_gram_pins_the_exact_value(self, rng):
        # unitary A and B force N = 2I, so the radius is exactly 2
        for d in (2, 3, 4):
            a = unitary_group.rvs(d, random_state=rng)
            b = unitary_group.rvs(d, random_state=rng)
            assert abs(_dense_value(SystemSpec(a, (b,)), "discrete") - 2.0) <= 1e-8

    def test_shifted_skew_pins_the_abscissa(self, rng):
        for a_val in (-1.0, 0.0, 0.3):
            g = rng.standard_normal((3, 3))
            skew = g - g.T
            spec = SystemSpec(a_val * np.eye(3) + skew, (ortho_group.rvs(3, random_state=rng),))
            assert abs(_dense_value(spec, "continuous") - (2 * a_val + 1)) <= 1e-8


class TestClassify:
    def test_demo_indeterminate_then_exact_stable(self):
        spec = demo_system(0.5, 0.7, 2.0)
        bounds_only = classify_stability(spec, "discrete", allow_exact_fallback=False)
        assert bounds_only.status is StabilityStatus.INDETERMINATE
        with_exact = classify_stability(spec, "discrete", allow_exact_fallback=True)
        assert with_exact.status is StabilityStatus.EXACT_STABLE
        assert with_exact.evidence.exact == pytest.approx(0.49, abs=1e-10)
        assert with_exact.threshold == 1.0

    def test_certified_unstable_from_lower_bound(self):
        spec = demo_system(1.0, 1.2, 1.0)  # lower bound min(a^2+s^2, b^2) = 1.44 > 1
        verdict = classify_stability(spec, "discrete", allow_exact_fallback=True)
        assert verdict.status is StabilityStatus.CERTIFIED_UNSTABLE
        assert verdict.evidence.lower > 1.0

    def test_certified_stable_continuous(self, rng):
        g = rng.standard_normal((2, 2))
        spec = SystemSpec(-3.0 * np.eye(2) + (g - g.T), (ortho_group.rvs(2, random_state=rng),))
        verdict = classify_stability(spec, "continuous")
        assert verdict.status is StabilityStatus.CERTIFIED_STABLE
        assert verdict.evidence.upper == pytest.approx(-5.0, abs=1e-10)

    def test_boundary_case_stays_indeterminate(self):
        spec = SystemSpec(np.eye(2))  # radius exactly at the threshold 1
        verdict = classify_stability(spec, "discrete", allow_exact_fallback=True)
        assert verdict.status is StabilityStatus.INDETERMINATE

    def test_verdict_from_report_requires_exact_for_fallback(self):
        rep = BoundReport(lower=0.5, upper=1.5, exact=None, mode="discrete")
        assert verdict_from_report(rep).status is StabilityStatus.INDETERMINATE
        rep = BoundReport(lower=0.5, upper=1.5, exact=0.7, mode="discrete")
        assert verdict_from_report(rep).status is StabilityStatus.EXACT_STABLE


STABLE_STATUSES = frozenset({StabilityStatus.CERTIFIED_STABLE, StabilityStatus.EXACT_STABLE})

#: Offsets from the threshold just outside and just inside the verdict band.
_OUTSIDE = BOUNDARY_TOL * (1 + 1e-3)
_INSIDE = BOUNDARY_TOL * (1 - 1e-3)


class TestVerdictBand:
    """A verdict clears the threshold by more than ``BOUNDARY_TOL``: today's band.

    One end of the report, or its exact value, sits just outside or just
    inside threshold +- BOUNDARY_TOL; the other ends lie 0.5 away.
    """

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("end, offset, status", [
        ("upper", -_OUTSIDE, StabilityStatus.CERTIFIED_STABLE),
        ("upper", -_INSIDE, StabilityStatus.INDETERMINATE),
        ("lower", _INSIDE, StabilityStatus.INDETERMINATE),
        ("lower", _OUTSIDE, StabilityStatus.CERTIFIED_UNSTABLE),
        ("exact", -_OUTSIDE, StabilityStatus.EXACT_STABLE),
        ("exact", -_INSIDE, StabilityStatus.INDETERMINATE),
        ("exact", _INSIDE, StabilityStatus.INDETERMINATE),
        ("exact", _OUTSIDE, StabilityStatus.EXACT_UNSTABLE),
    ], ids=["upper-outside", "upper-inside", "lower-inside", "lower-outside",
            "exact-below-outside", "exact-below-inside", "exact-above-inside",
            "exact-above-outside"])
    def test_status_at_the_band_edge(self, mode, end, offset, status):
        threshold = stability_threshold(mode)
        ends = {"lower": threshold - 0.5, "upper": threshold + 0.5, "exact": None}
        ends[end] = threshold + offset
        verdict = verdict_from_report(BoundReport(mode=mode, **ends))
        assert verdict.status is status


def _alpha_scalar(a: float, b: complex) -> Fraction:
    """alpha(C) = 2a + |b|**2 of the d = 1 continuous system (a, b), exactly."""
    return 2 * Fraction(a) + Fraction(b.real) ** 2 + Fraction(b.imag) ** 2


def _scalar_system(a: float, b: complex) -> SystemSpec:
    return SystemSpec(np.array([[a]]), (np.array([[b]]),))


class TestRoundoffAgainstTheBand:
    """d = 1 continuous systems whose M = 2a + |b|**2 cancels at large |a|.

    The true alpha(C) is positive in both.  The roundoff of forming M is of
    order u |a|, far above the absolute verdict band and chain slack.
    """

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 15: the verdict band ignores the roundoff of "
                              "forming M, so a positive alpha(C) is certified stable")
    def test_cancellation_is_not_certified_stable(self):
        a, b = -66118977.25644397, 7006.52212437457 + 9118.47587229015j
        alpha = _alpha_scalar(a, b)
        assert 4.35e-9 <= alpha <= 4.36e-9
        verdict = classify_stability(_scalar_system(a, b), "continuous")
        assert verdict.status not in STABLE_STATUSES

    @pytest.mark.xfail(strict=True, raises=ConsistencyError,
                       reason="ROADMAP item 15: the chain check's slack ignores the roundoff of "
                              "forming M, so cancellation raises ConsistencyError")
    def test_cancellation_is_not_a_consistency_error(self):
        a, b = -665792372175.1951, 913851.2969102209 + 704599.5681845807j
        alpha = _alpha_scalar(a, b)
        assert 5.20e-5 <= alpha <= 5.21e-5
        verdict = classify_stability(_scalar_system(a, b), "continuous", allow_exact_fallback=True)
        assert (verdict.status is StabilityStatus.INDETERMINATE
                or verdict.status in UNSTABLE_STATUSES)


def _wrong_signs(systems, mode):
    """The (a, b, status) whose ladder verdict contradicts the exact value's sign.

    ``systems`` holds (a, b, value) with value the exact rho(D) or alpha(C) as
    a ``Fraction``; a ``ConsistencyError`` counts as wrong too.
    """
    threshold = Fraction(stability_threshold(mode))
    wrong = []
    for a, b, value in systems:
        try:
            status = classify_stability(_scalar_system(a, b), mode, True).status
        except ConsistencyError as exc:
            wrong.append((a, b, exc))
            continue
        if (status in STABLE_STATUSES and value >= threshold
                or status in UNSTABLE_STATUSES and value <= threshold):
            wrong.append((a, b, status))
    return wrong


def _cancelling_continuous(scale, count=1000, seed=15):
    """d = 1 continuous systems a = -(p**2 + q**2)/2, b = p + iq, p and q in [scale/2, scale].

    About a third of the a move one ulp up and a third one ulp down, so
    alpha(C) = 2a + p**2 + q**2 lies within roundoff of 0 with either sign.
    """
    rng = np.random.default_rng(seed)
    systems = []
    for p, q, nudge in zip(rng.uniform(scale / 2, scale, count),
                           rng.uniform(scale / 2, scale, count), rng.integers(-1, 2, count)):
        a = -(p * p + q * q) / 2.0
        if nudge:
            a = float(np.nextafter(a, nudge * np.inf))
        systems.append((a, complex(p, q), _alpha_scalar(a, complex(p, q))))
    return systems


class TestRationalSweep:
    """Seeded d = 1 systems near the threshold against their value in rationals.

    Continuous systems cancel in M = 2a + |b|**2 with |b| of order ``scale``;
    the roundoff of forming M grows with it (ROADMAP item 15).  The scales
    that fail today are strict xfails, expected to flip once the band knows
    its roundoff.
    """

    def test_continuous_unit_scale(self):
        assert _wrong_signs(_cancelling_continuous(1e2), "continuous") == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15: at |b| ~ 1e4 the roundoff of "
                                           "forming M passes the absolute band")
    def test_continuous_scale_1e4(self):
        assert _wrong_signs(_cancelling_continuous(1e4), "continuous") == []

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15: at |b| ~ 1e6 the band and the "
                                           "chain check ignore the roundoff of forming M")
    def test_continuous_scale_1e6(self):
        assert _wrong_signs(_cancelling_continuous(1e6), "continuous") == []

    def test_discrete_unit_circle(self):
        # a = cos t e^(i phi1), b = sin t e^(i phi2): |a|**2 + |b|**2 within a few ulps of 1
        rng = np.random.default_rng(16)
        systems = []
        for t, phi1, phi2 in rng.uniform(0.0, 2.0 * np.pi, (1000, 3)):
            a = complex(np.cos(t) * np.exp(1j * phi1))
            b = complex(np.sin(t) * np.exp(1j * phi2))
            value = sum(Fraction(x) ** 2 for x in (a.real, a.imag, b.real, b.imag))
            systems.append((a, b, value))
        assert _wrong_signs(systems, "discrete") == []


def _criterion3_systems():
    """Acceptance criterion 3's 1000 systems: d = 2..5, m = 0..3."""
    rng = np.random.default_rng(31337)
    return [random_system(rng, 2 + i % 4, i % 4) for i in range(1000)]


class TestLadder:
    """The rungs after the bounds, against the dense d**2 spectrum as oracle."""

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_refined_bracket_contains_dense_value(self, mode):
        for spec in _criterion3_systems():
            if spec.m == 0:
                continue
            (lower, upper), applications = _arnoldi(spec, mode)
            exact = _dense_value(spec, mode)
            slack = CHAIN_TOL * max(1.0, abs(lower), abs(upper))
            assert lower - slack <= exact <= upper + slack
            assert upper - lower <= 1e-7 * max(1.0, abs(lower), abs(upper))
            assert applications <= 248

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_thick_restarts_keep_the_dense_value_in_the_bracket(self, mode, monkeypatch):
        # d = 8..12: d**2 exceeds the Krylov dimension, so rung 3 restarts
        rng = np.random.default_rng(8)
        counts, skipped = [], []
        for i in range(48):
            spec = random_system(rng, (8, 10, 12)[i % 3], 1 + i % 3)
            (lower, upper), applications = _arnoldi(spec, mode)
            with monkeypatch.context() as patch:
                patch.setattr(kronsum, "_may_decide", _always)
                every, every_applications = _arnoldi(spec, mode)
            # a bracket never feeds the iteration: skipping one saves its
            # application and moves neither the bracket nor its midpoint
            assert every == (lower, upper)
            summary = summarize(_BUILD[mode](spec))
            exact = summary.radius if mode == "discrete" else summary.abscissa
            slack = CHAIN_TOL * max(1.0, abs(lower), abs(upper))
            assert lower - slack <= exact <= upper + slack
            assert upper - lower <= 1e-7 * max(1.0, abs(lower), abs(upper))
            counts.append(applications)
            skipped.append(every_applications - applications)
        assert max(counts) <= 248
        assert max(counts) > 31  # at least one run went past its first cycle
        # ... and at least one took fewer brackets than cycles
        assert min(skipped) >= 0 and max(skipped) > 0

    def test_undecided_run_reports_its_final_cycle_bracket(self, monkeypatch):
        # weak noise: rung 3's bracket stalls well short of narrow, the gate
        # skips one bracket on the way, and the run reports the stalled one
        rng = np.random.default_rng(900)
        spec = SystemSpec(rng.standard_normal((9, 9)) / 3,
                          (0.01 * rng.standard_normal((9, 9)) / 3,))
        report = classify_stability(spec, "continuous", allow_exact_fallback=True).evidence
        monkeypatch.setattr(kronsum, "_may_decide", _always)
        every = classify_stability(spec, "continuous", allow_exact_fallback=True).evidence
        assert report.rung == every.rung == "dense"
        assert report.bracket_width == every.bracket_width > 1e-7 * abs(report.exact)
        assert report.map_applications == every.map_applications - 1
        assert repr(report.exact) == repr(every.exact)

    @pytest.mark.parametrize("d, mode", [(6, "continuous"), (8, "continuous"),
                                         (12, "discrete")])
    def test_stalled_bracket_ends_the_run(self, d, mode):
        # weak noise, a nearly singular Perron matrix: from the third cycle
        # the residual is zero and the bracket no longer narrows (2e-7 to
        # 6e-6 wide), which once spent the whole budget, 250-251 applications
        rng = np.random.default_rng(d)
        spec = SystemSpec(rng.standard_normal((d, d)) / np.sqrt(d),
                          (0.01 * rng.standard_normal((d, d)) / np.sqrt(d),))
        verdict = classify_stability(spec, mode, allow_exact_fallback=True)
        assert verdict.status is StabilityStatus.EXACT_UNSTABLE
        assert verdict.evidence.rung == "dense"
        assert verdict.evidence.exact == pytest.approx(_dense_value(spec, mode), rel=1e-12)
        assert verdict.evidence.map_applications <= 100

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_closed_form_matches_dense_value(self, mode):
        for spec in _criterion3_systems():
            if spec.m == 0:
                exact = _dense_value(spec, mode)
                assert abs(_closed_form(spec, mode) - exact) <= 1e-12

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    def test_ladder_status_matches_dense_verdict(self, mode):
        rungs = set()
        for spec in _criterion3_systems():
            dense = verdict_from_report(replace(classify_stability(spec, mode).evidence,
                                                exact=_dense_value(spec, mode)))
            verdict = classify_stability(spec, mode, allow_exact_fallback=True)
            assert verdict.status is dense.status
            rungs.add(verdict.evidence.rung)
        assert rungs == {"bounds", "closed-form", "refined"}

    def test_dense_rung_takes_the_spectrum_of_the_real_form(self):
        # the singular-Perron demo below, padded to d = 4 and turned by a
        # unitary: dense complex entries, still no V > 0 for rung 3
        demo = demo_system(1.5, 0.5, 2.0)
        u = unitary_group.rvs(4, random_state=5)
        turn = lambda x: u @ np.pad(x, (0, 2)) @ u.conj().T
        spec = SystemSpec(turn(demo.a), (turn(demo.noise_mats[0]),))
        report = classify_stability(spec, "discrete", allow_exact_fallback=True).evidence
        assert report.rung == "dense"
        want = summarize(kron_sum(spec, "discrete"))
        assert report.exact == pytest.approx(want.radius, rel=1e-12)
        _assert_multiset_close(report.eigenvalues, want.eigenvalues, 1e-12)

    def test_singular_perron_matrix_falls_to_dense(self):
        # rho(D) = a^2 = 2.25 has the singular Perron matrix e_1 e_1*, so no
        # V > 0 narrows the bracket onto it
        verdict = classify_stability(demo_system(1.5, 0.5, 2.0), "discrete",
                                     allow_exact_fallback=True)
        assert verdict.status is StabilityStatus.EXACT_UNSTABLE
        assert verdict.evidence.rung == "dense"
        assert verdict.evidence.exact == pytest.approx(2.25, abs=1e-10)
        assert verdict.evidence.map_applications > 0


def _straddling(rng, d, m, mode, value):
    """A complex system with spectral value ``value`` whose companion bounds straddle the threshold.

    Discrete systems are scaled (rho(D) scales by c**2), continuous ones
    shifted (alpha(C) moves by 2s).
    """
    while True:
        spec = _family_block(rng, d, m, mode)
        exact = _dense_value(spec, mode)
        if mode == "discrete":
            c = np.sqrt(value / exact)
            spec = SystemSpec(c * spec.a, tuple(c * b for b in spec.noise_mats))
        else:
            spec = SystemSpec(spec.a + (value - exact) / 2.0 * np.eye(d), spec.noise_mats)
        report = classify_stability(spec, mode).evidence
        if report.lower < stability_threshold(mode) < report.upper:
            return spec


class TestPowerBracket:
    """Discrete rung 3 past d**2 = 30: the power method on Phi* from V = I."""

    def test_bracket_contains_dense_value(self):
        rng = np.random.default_rng(37)
        for i in range(48):
            spec = _straddling(rng, 6 + i % 11, 1 + i % 3, "discrete", (0.85, 1.15)[i % 2])
            (lower, upper), applications = _power(spec)
            exact = _dense_value(spec, "discrete")
            slack = CHAIN_TOL * max(1.0, abs(lower), abs(upper))
            assert lower - slack <= exact <= upper + slack
            assert upper - lower <= 1e-7 * max(1.0, abs(lower), abs(upper))
            verdict = classify_stability(spec, "discrete", allow_exact_fallback=True)
            dense = verdict_from_report(replace(verdict.evidence, exact=exact))
            assert verdict.status is dense.status
            assert verdict.evidence.rung == "refined"
            assert verdict.evidence.exact == (lower + upper) / 2.0
            assert verdict.evidence.map_applications == applications <= 248

    def test_brackets_nest(self):
        # Phi* is positive, so Phi*(V) >= lam V gives Phi*(Phi*(V)) >= lam Phi*(V):
        # each end of the bracket moves inward, up to roundoff
        rng = np.random.default_rng(38)
        for i in range(40):
            spec = _straddling(rng, 6 + i % 11, 1 + i % 3, "discrete", (0.85, 1.15)[i % 2])
            apply = adjoint_moment_map(spec, "discrete")
            v = np.eye(spec.d, dtype=np.complex128)
            before = None
            for _ in range(60):
                bracket, image = _bracket_at(apply, v)
                if before is not None:
                    slack = 1e-14 * max(1.0, abs(bracket[0]), abs(bracket[1]))
                    assert before[0] - slack <= bracket[0] <= bracket[1] <= before[1] + slack
                before = bracket
                v = image / np.abs(image).max()

    def test_small_budget_hands_arnoldi_the_rest(self, monkeypatch):
        # with 12 applications the power method brackets at the 8th, cannot
        # reach the 16th, and leaves Arnoldi the other 4
        spec = _straddling(np.random.default_rng(39), 10, 2, "discrete", 0.85)
        monkeypatch.setattr(kronsum, "_MAX_STEPS", 12)
        assert _power(spec) == (None, 8)
        bracket, applications = _arnoldi(spec, "discrete", 4)
        report = classify_stability(spec, "discrete", allow_exact_fallback=True).evidence
        assert report.bracket_width == bracket[1] - bracket[0]
        assert report.map_applications == 8 + applications == 12 + 1
        assert report.rung == "dense"

    def test_stalled_power_method_hands_over_to_arnoldi(self):
        # test_stalled_bracket_ends_the_run's d = 12 system: from the 8th to the
        # 16th application the width shrinks too slowly to narrow within the
        # budget, and Arnoldi then takes the bracket it takes on its own
        d = 12
        rng = np.random.default_rng(d)
        spec = SystemSpec(rng.standard_normal((d, d)) / np.sqrt(d),
                          (0.01 * rng.standard_normal((d, d)) / np.sqrt(d),))
        assert _power(spec) == (None, 16)
        bracket, applications = _arnoldi(spec, "discrete")
        report = classify_stability(spec, "discrete", allow_exact_fallback=True).evidence
        assert report.bracket_width == bracket[1] - bracket[0]
        assert report.map_applications == 16 + applications

    def test_arnoldi_alone_at_small_d_and_in_continuous_mode(self, monkeypatch):
        # at d = 5 Arnoldi spans the whole space of d-by-d matrices, and L* is
        # not a positive map
        rng = np.random.default_rng(40)
        monkeypatch.setattr(kronsum, "_power_bracket", _fail)
        for d, mode, value in ((5, "discrete", 0.85), (8, "continuous", -0.1)):
            spec = _straddling(rng, d, 2, mode, value)
            verdict = classify_stability(spec, mode, allow_exact_fallback=True)
            assert verdict.evidence.rung == "refined"
            assert verdict.status is StabilityStatus.EXACT_STABLE


def _broken(apply, call):
    """``apply`` whose ``call``-th application returns infinities."""
    calls = itertools.count(1)
    return lambda v: np.full_like(v, np.inf) if next(calls) == call else apply(v)


def _phi_star(d):
    """Phi* of a straddling discrete system at d, with d."""
    spec = _straddling(np.random.default_rng(39), d, 2, "discrete", 0.85)
    return adjoint_moment_map(spec, "discrete"), d


class TestRung3Exits:
    """Rung 3's exits without a narrow bracket, each with the applications it spent.

    Two come from systems; the others take Phi* with one application turned
    infinite.
    """

    def test_bracket_at_a_non_finite_similarity(self):
        bracket, image = _rung3(_bracket_at, lambda v: np.full_like(v, np.inf), np.eye(3))
        assert bracket is None and np.isinf(image).all()

    def test_power_method_hands_over_on_a_non_finite_similarity(self):
        # the 8th application is the first bracket's
        apply, d = _phi_star(10)
        assert _rung3(_power_bracket, _broken(apply, 8), d) == (None, 8)

    def test_power_method_hands_over_when_the_width_stops_shrinking(self):
        # rho(D) = 1 has the singular Perron matrix e_1 e_1*: the width is
        # 0.75 at the 8th and 16th applications, and rho(D) sits on the threshold
        spec = SystemSpec(np.diag([1.0] + [0.5] * 5), (np.zeros((6, 6)),))
        assert _power(spec) == (None, 16)
        verdict = classify_stability(spec, "discrete", allow_exact_fallback=True)
        assert verdict.status is StabilityStatus.INDETERMINATE
        assert verdict.evidence.rung == "dense" and verdict.evidence.exact == 1.0
        assert verdict.evidence.map_applications == 18

    def test_power_method_hands_over_on_a_zero_image(self):
        # B_1 the nilpotent shift: Phi*^6(I) = (B_1^6)* B_1^6 = 0
        spec = SystemSpec(np.zeros((6, 6)), (np.eye(6, k=-1),))
        assert _power(spec) == (None, 6)

    def test_power_method_hands_over_on_a_non_finite_image(self):
        apply, d = _phi_star(10)
        assert _rung3(_power_bracket, _broken(apply, 3), d) == (None, 3)

    def test_arnoldi_ends_on_a_non_finite_hessenberg_matrix(self):
        apply, d = _phi_star(10)
        assert _rung3(_refined_bracket, _broken(apply, 2), d, kronsum._MAX_STEPS) == (None, 2)

    def test_arnoldi_ends_on_a_non_finite_similarity(self):
        # at d = 2 four steps span every 2-by-2 matrix and end the run; the
        # 5th application is its one bracket's
        apply, d = _phi_star(2)
        assert _rung3(_refined_bracket, apply, d, kronsum._MAX_STEPS)[1] == 5
        assert _rung3(_refined_bracket, _broken(apply, 5), d, kronsum._MAX_STEPS) == (None, 5)


def _counting(fn, counts):
    def counted(*args, **kwargs):
        counts[fn.__name__] += 1
        return fn(*args, **kwargs)
    return counted


@pytest.mark.parametrize("case", ["bounds", "power", "arnoldi", "handover"])
def test_one_adjoint_map_per_verdict(case, monkeypatch):
    # the companion and whichever rung-3 engines run share one Phi* or L*
    if case == "bounds":
        spec, mode, rung, engines = demo_system(1.0, 1.2, 1.0), "discrete", "bounds", []
    elif case == "power":
        spec = _straddling(np.random.default_rng(39), 10, 2, "discrete", 0.85)
        mode, rung, engines = "discrete", "refined", ["_power_bracket"]
    elif case == "arnoldi":
        spec = _straddling(np.random.default_rng(40), 8, 2, "continuous", -0.1)
        mode, rung, engines = "continuous", "refined", ["_refined_bracket"]
    else:
        # TestPowerBracket's stalled d = 12 system
        rng = np.random.default_rng(12)
        spec = SystemSpec(rng.standard_normal((12, 12)) / np.sqrt(12),
                          (0.01 * rng.standard_normal((12, 12)) / np.sqrt(12),))
        mode, rung, engines = "discrete", "dense", ["_power_bracket", "_refined_bracket"]
    counts = Counter()
    for name in ("adjoint_moment_map", "_power_bracket", "_refined_bracket"):
        monkeypatch.setattr(kronsum, name, _counting(getattr(kronsum, name), counts))
    verdict = classify_stability(spec, mode, allow_exact_fallback=True)
    assert verdict.evidence.rung == rung
    assert counts == Counter(["adjoint_moment_map", *engines])


def _always(residual, theta):
    """Rung 3's bracket gate opened: a bracket on every cycle."""
    return True


def _fail(*args, **kwargs):
    raise AssertionError("dense d**2 work started past the ceiling")


class TestDenseCeiling:
    """d = 65 is past the dense ceiling: d-by-d work runs, D and C are refused unbuilt."""

    @pytest.mark.parametrize("build", [build_discrete_sum, build_continuous_sum],
                             ids=["build_discrete_sum", "build_continuous_sum"])
    def test_builders_refuse_before_kron(self, build, monkeypatch):
        spec = SystemSpec(np.eye(65), (np.eye(65),))
        # the builders allocate R with np.empty, the oracles use np.kron
        monkeypatch.setattr(np, "kron", _fail)
        monkeypatch.setattr(np, "empty", _fail)
        with pytest.raises(ValueError, match="4225 rows, over the dense ceiling of 4096"):
            build(spec)

    def test_refined_rung_decides_past_the_ceiling(self, monkeypatch):
        rng = np.random.default_rng(0)
        d = 65
        a = rng.standard_normal((d, d)) / np.sqrt(d)
        noise = tuple(0.5 * rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(2))
        spec = SystemSpec(0.7 * a, noise)
        monkeypatch.setattr(np, "kron", _fail)
        verdict = classify_stability(spec, "discrete", allow_exact_fallback=True)
        assert verdict.evidence.lower < 1.0 < verdict.evidence.upper
        assert verdict.evidence.rung == "refined"
        assert verdict.status is StabilityStatus.EXACT_STABLE

    @pytest.mark.parametrize("seed, shift, low, high", [
        (1, 1.2, -0.212227, -0.212220), (2, 1.5, -1.10580, -1.10507),
    ], ids=["seed1", "seed2"])
    def test_continuous_refined_rung_decides_past_the_ceiling(self, seed, shift, low, high,
                                                              monkeypatch):
        # A = G/sqrt(d) - c I, B_k = 0.5 G_k/sqrt(d); [low, high] is an earlier
        # rigorous bracket of alpha(C), too wide to decide on its own
        rng = np.random.default_rng(seed)
        d = 65
        a = rng.standard_normal((d, d)) / np.sqrt(d) - shift * np.eye(d)
        noise = tuple(0.5 * rng.standard_normal((d, d)) / np.sqrt(d) for _ in range(2))
        monkeypatch.setattr(np, "kron", _fail)
        verdict = classify_stability(SystemSpec(a, noise), "continuous", allow_exact_fallback=True)
        assert verdict.evidence.lower < 0.0 < verdict.evidence.upper
        assert verdict.evidence.rung == "refined"
        assert verdict.status is StabilityStatus.EXACT_STABLE
        assert low <= verdict.evidence.exact <= high

    def test_singular_perron_refuses_instead_of_allocating(self, monkeypatch):
        # TestLadder's singular-Perron demo, padded with zeros to d = 65, needs rung 4
        demo = demo_system(1.5, 0.5, 2.0)
        spec = SystemSpec(np.pad(demo.a, (0, 63)), (np.pad(demo.noise_mats[0], (0, 63)),))
        monkeypatch.setattr(np, "kron", _fail)
        with pytest.raises(ValueError, match="dense ceiling"):
            classify_stability(spec, "discrete", allow_exact_fallback=True)

    @pytest.mark.parametrize("mode, name", [("discrete", "N"), ("continuous", "M")])
    def test_companion_refused_before_the_map_runs(self, mode, name, monkeypatch):
        # past the ceiling its eigensolve would refuse the companion, so it is never built
        monkeypatch.setattr("kronspec.spectral.DENSE_CEILING", 4)
        monkeypatch.setattr(kronsum, "adjoint_moment_map", _fail)
        spec = SystemSpec(0.5 * np.eye(5), (0.1 * np.eye(5),))
        with pytest.raises(ValueError, match=f"^Hermitian companion {name} has 5 rows, "
                           "over the dense ceiling of 4$"):
            classify_stability(spec, mode)


def _complex_gaussian(rng, d):
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


def _family_block(rng, d, m, mode):
    """A complex block of the random family, scaled so values fall on both sides."""
    if mode == "discrete":
        a = rng.uniform(0.3, 0.9) * _complex_gaussian(rng, d) / np.sqrt(d)
        noise = tuple(rng.uniform(0.2, 0.6) * _complex_gaussian(rng, d) / np.sqrt(d)
                      for _ in range(m))
    else:
        a = _complex_gaussian(rng, d) / np.sqrt(d) - rng.uniform(0.5, 1.5) * np.eye(d)
        noise = tuple(0.5 * _complex_gaussian(rng, d) / np.sqrt(d) for _ in range(m))
    return SystemSpec(a, noise)


class TestMixedDirectSums:
    """Unitarily mixed direct sums: systems whose value is the largest block value.

    Past the dense ceiling no dense value exists, so these constructions are
    the oracle there.  A direct sum is reducible, so rung 3 finds no bracket
    and the dense rung decides.
    """

    @pytest.mark.parametrize("mode", ["discrete", "continuous"])
    @pytest.mark.parametrize("seed", range(5))
    def test_value_is_the_largest_block_value(self, mode, seed):
        rng = np.random.default_rng(seed)
        m = 1 + seed % 2
        blocks = [_family_block(rng, int(rng.integers(1, 5)), m, mode)
                  for _ in range(2 + seed % 2)]
        spec = mixed_direct_sum(blocks, rng)
        value = max(_dense_value(block, mode) for block in blocks)
        threshold = stability_threshold(mode)
        if abs(value - threshold) <= 1e-6:
            pytest.skip("the constructed value lies within 1e-6 of the threshold")
        assert abs(_dense_value(spec, mode) - value) <= CHAIN_TOL * max(1.0, abs(value))
        verdict = classify_stability(spec, mode, allow_exact_fallback=True)
        want = UNSTABLE_STATUSES if value > threshold else STABLE_STATUSES
        assert verdict.status in want

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="ROADMAP items 1 and 13: rung 3 finds no bracket on a reducible "
                              "system, and past d = 64 the dense rung refuses")
    def test_d128_mix_gets_its_sign(self):
        # eight d = 16 blocks A = G/sqrt(d) - 1.2 I, B_k = 0.5 G_k/sqrt(d), m = 2;
        # one block is unstable
        rng = np.random.default_rng(5)
        d = 16
        blocks = [SystemSpec(_complex_gaussian(rng, d) / np.sqrt(d) - 1.2 * np.eye(d),
                             tuple(0.5 * _complex_gaussian(rng, d) / np.sqrt(d) for _ in range(2)))
                  for _ in range(8)]
        value = max(_dense_value(block, "continuous") for block in blocks)
        assert value == pytest.approx(0.2731, abs=1e-4)
        spec = mixed_direct_sum(blocks, rng)
        assert spec.d == 128
        verdict = classify_stability(spec, "continuous", allow_exact_fallback=True)
        assert verdict.status in UNSTABLE_STATUSES


class TestRefinedInvariances:
    """Identities of the refined value on both rung-3 engines.

    Discrete d = 4, 5 take Arnoldi and d = 6..8 the power method; continuous
    mode takes Arnoldi.  Scales stay near 1, but for the continuous time
    scaling by 4, 1/4 and 3.  Values agree within 1e-7 of max(1, |value|), the
    width rung 3 narrows to.
    """

    @pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
    def test_discrete_scaling_and_unitary_similarity(self, d):
        # (cA, cB_k) multiplies rho(D) by c**2; U A U*, U B_k U* leaves it
        rng = np.random.default_rng(100 + d)
        spec = _straddling(rng, d, 1 + d % 3, "discrete", (0.85, 1.15)[d % 2])
        c = rng.uniform(0.98, 1.02)
        u = unitary_group.rvs(d, random_state=d)
        scaled = SystemSpec(c * spec.a, tuple(c * b for b in spec.noise_mats))
        turned = SystemSpec(u @ spec.a @ u.conj().T,
                            tuple(u @ b @ u.conj().T for b in spec.noise_mats))
        base = classify_stability(spec, "discrete", allow_exact_fallback=True)
        assert base.evidence.rung == "refined"
        for other, want in ((scaled, c * c * base.evidence.exact), (turned, base.evidence.exact)):
            verdict = classify_stability(other, "discrete", allow_exact_fallback=True)
            assert verdict.evidence.rung == "refined"
            assert verdict.status is base.status
            assert abs(verdict.evidence.exact - want) <= 1e-7 * max(1.0, abs(want))

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_continuous_shift(self, d):
        # A + sI adds 2 Re s to alpha(C)
        rng = np.random.default_rng(200 + d)
        spec = _straddling(rng, d, 1 + d % 3, "continuous", (-0.15, 0.15)[d % 2])
        s = complex(rng.uniform(-0.02, 0.02), rng.uniform(-0.5, 0.5))
        shifted = SystemSpec(spec.a + s * np.eye(d), spec.noise_mats)
        base = classify_stability(spec, "continuous", allow_exact_fallback=True)
        verdict = classify_stability(shifted, "continuous", allow_exact_fallback=True)
        assert base.evidence.rung == verdict.evidence.rung == "refined"
        assert verdict.status is base.status
        want = base.evidence.exact + 2.0 * s.real
        assert abs(verdict.evidence.exact - want) <= 1e-7 * max(1.0, abs(want))

    @pytest.mark.parametrize("d", [6, 7, 8])
    def test_continuous_time_scaling(self, d):
        # (cA, sqrt(c) B_k) multiplies alpha(C) by c, and M by c: with c a
        # power of two every product forming M scales exactly, so its extremes do
        rng = np.random.default_rng(41)
        for i in range(4):
            spec = _straddling(rng, d, 1 + i % 3, "continuous", (-0.15, 0.15)[i % 2])
            base = classify_stability(spec, "continuous", allow_exact_fallback=True)
            assert base.evidence.rung == "refined"
            for c in (4.0, 0.25, 3.0):
                scaled = SystemSpec(c * spec.a, tuple(math.sqrt(c) * b for b in spec.noise_mats))
                verdict = classify_stability(scaled, "continuous", allow_exact_fallback=True)
                assert verdict.evidence.rung == "refined"
                assert verdict.status is base.status
                want = c * base.evidence.exact
                assert abs(verdict.evidence.exact - want) <= 1e-7 * max(1.0, abs(want))
                if c != 3.0:
                    assert verdict.evidence.lower == c * base.evidence.lower
                    assert verdict.evidence.upper == c * base.evidence.upper


class TestDemoFamilyInvariants:
    def test_spectrum_independent_of_noise_strength(self):
        a, b = 0.6, -0.8
        expected = np.sort([a * a, a * b, a * b, b * b])
        for sigma in (0.0, 1.0, 10.0):
            w = eigenvalues(build_discrete_sum(demo_system(a, b, sigma)))
            assert np.allclose(np.sort(w.real), expected, atol=1e-10)
            assert np.max(np.abs(w.imag)) <= 1e-10

    def test_radius_independent_of_noise_strength(self):
        radii = [
            summarize(build_discrete_sum(demo_system(0.5, 0.7, s))).radius
            for s in (0.0, 1.0, 10.0)
        ]
        assert np.allclose(radii, 0.49, atol=1e-10)
