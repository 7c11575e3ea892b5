"""Stochastic Kronecker sums, their small Hermitian bound matrices, and stability verdicts.

For a system (A, B_1..B_m) of d-by-d matrices, two d**2-by-d**2 matrices drive
the second-moment dynamics:

    discrete time:    D = conj(A) (x) A  +  sum_k conj(B_k) (x) B_k
    continuous time:  C = conj(A) (x) I  +  I (x) A  +  sum_k conj(B_k) (x) B_k

where ``(x)`` is the Kronecker product.  Their spectral radius (discrete) and
spectral abscissa (continuous) decide mean-square stability, but they are large
and generally non-normal.  Two d-by-d Hermitian companions

    N = A* A + sum_k B_k* B_k          M = A + A* + sum_k B_k* B_k

sandwich those quantities between their extreme eigenvalues:

    lam_min(N) <= rho(D) <= lam_max(N)
    lam_min(M) <= alpha(C) <= lam_max(M)

so a pair of cheap d-by-d Hermitian eigensolves can certify stability or
instability of the d**2-sized problem outright.

D and C are the matrices of the second-moment maps of the underlying bilinear
stochastic systems,

    Phi(V) = A V A* + sum_k B_k V B_k*       L(V) = A V + V A* + sum_k B_k V B_k*

(vec(Phi(V)) = D vec(V), vec(L(V)) = C vec(V)), and N = Phi*(I), M = L*(I).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .matrices import ConsistencyError, SystemSpec
from .spectral import hermitian_extremes, summarize

#: Verdicts within this distance of the threshold are not certified either way.
BOUNDARY_TOL = 1e-9

#: Relative slack allowed before a bound-chain violation is treated as a bug.
CHAIN_TOL = 1e-8

_MODES = ("discrete", "continuous")


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def second_moment_map(spec: SystemSpec, mode: str):
    """The map V -> Phi(V) (discrete) or V -> L(V) (continuous) on d-by-d matrices.

    A* and each B_k* are formed once per map, not once per application.  The
    returned function allocates its result; the input is left untouched.
    """
    discrete = _check_mode(mode) == "discrete"
    a = spec.a
    ah = a.conj().T
    pairs = [(b, b.conj().T) for b in spec.noise_mats]

    def apply(v: np.ndarray) -> np.ndarray:
        out = a @ v @ ah if discrete else a @ v + v @ ah
        for b, bh in pairs:
            out += b @ v @ bh
        return out

    return apply


def build_discrete_sum(spec: SystemSpec) -> np.ndarray:
    """The d**2-by-d**2 matrix D = conj(A) (x) A + sum_k conj(B_k) (x) B_k.

    Raises ``OverflowError`` when D leaves double-precision range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(spec.a.conj(), spec.a)
        for b in spec.noise_mats:
            out += np.kron(b.conj(), b)
    return _finite(out, "stochastic Kronecker sum D")


def build_continuous_sum(spec: SystemSpec) -> np.ndarray:
    """The d**2-by-d**2 matrix C = conj(A) (x) I + I (x) A + sum_k conj(B_k) (x) B_k.

    Raises ``OverflowError`` when C leaves double-precision range.
    """
    eye = np.eye(spec.d, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(spec.a.conj(), eye) + np.kron(eye, spec.a)
        for b in spec.noise_mats:
            out += np.kron(b.conj(), b)
    return _finite(out, "stochastic Kronecker sum C")


def _finite(out: np.ndarray, name: str) -> np.ndarray:
    """The one overflow rule of the four builders: a non-finite entry is an ``OverflowError``."""
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"{name} overflowed")
    return out


def _hermitian_part(out: np.ndarray, name: str) -> np.ndarray:
    # symmetrize away matmul roundoff so structural predicates pass exactly
    return _finite((out + out.conj().T) / 2.0, f"Hermitian companion {name}")


def build_discrete_gram(spec: SystemSpec) -> np.ndarray:
    """The d-by-d Hermitian PSD matrix N = A* A + sum_k B_k* B_k.

    Raises ``OverflowError`` when N leaves double-precision range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = spec.a.conj().T @ spec.a
        for b in spec.noise_mats:
            out += b.conj().T @ b
        return _hermitian_part(out, "N")


def build_continuous_gram(spec: SystemSpec) -> np.ndarray:
    """The d-by-d Hermitian matrix M = A + A* + sum_k B_k* B_k (indefinite in general).

    Raises ``OverflowError`` when M leaves double-precision range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = spec.a + spec.a.conj().T
        for b in spec.noise_mats:
            out += b.conj().T @ b
        return _hermitian_part(out, "M")


@dataclass(frozen=True)
class BoundReport:
    """Bound interval for rho(D) (discrete) or alpha(C) (continuous).

    ``lower`` and ``upper`` are the extreme eigenvalues of the Hermitian
    companion; ``exact`` is the bracketed spectral quantity itself when it was
    computed, else None, and ``eigenvalues`` the full spectrum of D or C
    behind it, sorted by (real, imaginary) part.
    """

    lower: float
    upper: float
    exact: float | None
    mode: str
    eigenvalues: np.ndarray | None = field(default=None, compare=False, repr=False)


def check_bound_chain(report: BoundReport) -> None:
    """Raise :class:`ConsistencyError` if the report violates the bound chain.

    The chain lower <= exact <= upper holds for every system, so a failure
    beyond roundoff slack falsifies the implementation, not the input.
    """
    if report.lower > report.upper:
        raise ConsistencyError(
            f"bound interval inverted: lower={report.lower!r} > upper={report.upper!r}"
        )
    if report.exact is None:
        return
    slack = CHAIN_TOL * max(1.0, abs(report.lower), abs(report.upper))
    if not (report.lower - slack <= report.exact <= report.upper + slack):
        raise ConsistencyError(
            f"{report.mode} bound chain violated: "
            f"{report.lower!r} <= {report.exact!r} <= {report.upper!r} fails at slack {slack:g}"
        )


def bound_report(spec: SystemSpec, mode: str, compute_exact: bool = False) -> BoundReport:
    """Extreme eigenvalues of the Hermitian companion, plus the exact value on request.

    ``compute_exact`` triggers the full dense d**2-by-d**2 eigensolve; the
    bounds alone need only a d-by-d Hermitian solve.
    """
    discrete = _check_mode(mode) == "discrete"
    lower, upper = hermitian_extremes(
        build_discrete_gram(spec) if discrete else build_continuous_gram(spec)
    )
    exact = eigenvalues = None
    if compute_exact:
        summary = summarize(build_discrete_sum(spec) if discrete else build_continuous_sum(spec))
        exact = summary.radius if discrete else summary.abscissa
        eigenvalues = summary.eigenvalues
    report = BoundReport(
        lower=lower, upper=upper, exact=exact, mode=mode, eigenvalues=eigenvalues
    )
    check_bound_chain(report)
    return report


class StabilityStatus(str, Enum):
    """Three-way certification outcome, with provenance (bound-based vs exact)."""

    CERTIFIED_STABLE = "CertifiedStable"
    CERTIFIED_UNSTABLE = "CertifiedUnstable"
    INDETERMINATE = "Indeterminate"
    EXACT_STABLE = "ExactStable"
    EXACT_UNSTABLE = "ExactUnstable"


#: Statuses asserting mean-square stability.
STABLE_STATUSES = frozenset({StabilityStatus.CERTIFIED_STABLE, StabilityStatus.EXACT_STABLE})
#: Statuses asserting mean-square instability.
UNSTABLE_STATUSES = frozenset({StabilityStatus.CERTIFIED_UNSTABLE, StabilityStatus.EXACT_UNSTABLE})


@dataclass(frozen=True)
class StabilityVerdict:
    """Certification result: status, the evidence interval, and the threshold used.

    The threshold is 1 for the discrete spectral radius and 0 for the
    continuous spectral abscissa.
    """

    status: StabilityStatus
    evidence: BoundReport
    threshold: float


def stability_threshold(mode: str) -> float:
    """1.0 for discrete mode (radius test), 0.0 for continuous (abscissa test)."""
    return 1.0 if _check_mode(mode) == "discrete" else 0.0


def verdict_from_report(report: BoundReport) -> StabilityVerdict:
    """Decide stability from an existing bound report.

    Bounds are decisive when the whole interval clears the threshold; the
    exact value, when the report carries one, settles the rest.
    Values within :data:`BOUNDARY_TOL` of the threshold stay Indeterminate:
    floating point cannot certify marginal stability.
    """
    threshold = stability_threshold(report.mode)
    if report.upper < threshold - BOUNDARY_TOL:
        status = StabilityStatus.CERTIFIED_STABLE
    elif report.lower > threshold + BOUNDARY_TOL:
        status = StabilityStatus.CERTIFIED_UNSTABLE
    elif report.exact is not None:
        if abs(report.exact - threshold) <= BOUNDARY_TOL:
            status = StabilityStatus.INDETERMINATE
        elif report.exact < threshold:
            status = StabilityStatus.EXACT_STABLE
        else:
            status = StabilityStatus.EXACT_UNSTABLE
    else:
        status = StabilityStatus.INDETERMINATE
    return StabilityVerdict(status=status, evidence=report, threshold=threshold)


def classify_stability(
    spec: SystemSpec, mode: str, allow_exact_fallback: bool = False
) -> StabilityVerdict:
    """Certify mean-square stability of the system in the given mode.

    The cheap Hermitian bounds are always tried first; the expensive exact
    eigensolve runs only when the bounds are inconclusive and
    ``allow_exact_fallback`` is set.
    """
    verdict = verdict_from_report(bound_report(spec, mode, compute_exact=False))
    if verdict.status is StabilityStatus.INDETERMINATE and allow_exact_fallback:
        verdict = verdict_from_report(bound_report(spec, mode, compute_exact=True))
    return verdict
