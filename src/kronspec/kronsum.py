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
Both maps keep Hermitian matrices Hermitian, so on the real space of Hermitian
matrices they are real-linear: :func:`real_sum` gives their real d**2-by-d**2
matrix R = Re S + Im S Pi (S = D or C) in the coordinates of
:func:`kronspec.matrices.real_vec`, with spec(R) = spec(S).  The dense rung takes
the spectrum of R, and the continuous Kronecker route of
:mod:`kronspec.evolution` exponentiates it; a real eigensolve or Pade product
costs about half its complex counterpart.

The companions are the case V = I of a Collatz-Wielandt bracket.  Phi is
positive and L resolvent-positive, so for every Hermitian V > 0 with Cholesky
factor V = F F* the extreme eigenvalues of F^-1 Phi*(V) F^-* bracket rho(D),
and those of F^-1 L*(V) F^-* bracket alpha(C).  :func:`classify_stability` with
``allow_exact_fallback`` climbs a ladder of rungs, stopping at the first that
decides, and records the deciding rung in :attr:`BoundReport.rung`:

1. ``bounds``: the companion extremes clear the threshold.
2. ``closed-form`` (m = 0): rho(D) = rho(A)**2 and alpha(C) = 2 max Re lambda(A)
   from one d-by-d eigensolve.
3. ``refined``: a lean, thick-restarted Arnoldi on Phi* or L* over d-by-d
   matrices, started from V = I, narrows the bracket with the Ritz matrix of
   the rightmost Ritz value as V.  Each restart keeps the span of the
   rightmost Ritz vectors.  It decides once the bracket is narrower than
   ``1e-7`` relative and clears the threshold by more than
   :data:`BOUNDARY_TOL`.
4. ``dense``: the d**2-by-d**2 spectrum of R, when rung 3 has not converged within
   its budget or its bracket touches the threshold band (a singular Perron
   matrix, for instance, has no V > 0 to converge to).  Past d = 64 it raises
   ``ValueError`` before building D or C (``spectral.DENSE_CEILING``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .matrices import ConsistencyError, SystemSpec
from .spectral import check_dense_rows, eigenvalues, hermitian_extremes, summarize

#: Verdicts within this distance of the threshold are not certified either way.
BOUNDARY_TOL = 1e-9

#: Relative slack allowed before a bound-chain violation is treated as a bug.
CHAIN_TOL = 1e-8

_MODES = ("discrete", "continuous")

#: Rung 3's Krylov dimension (capped at d**2), the Ritz directions a thick
#: restart keeps, and its budget: at most 240 Arnoldi steps, each one map
#: application, plus one application per bracket.
_KRYLOV_DIM = 30
_KEEP = 8
_MAX_STEPS = 240

#: Rung 3 stops once its bracket is this narrow relative to max(1, |ends|).
_BRACKET_RTOL = 1e-7


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


def second_moment_map(spec: SystemSpec, mode: str):
    """The map V -> Phi(V) (discrete) or V -> L(V) (continuous) on d-by-d matrices.

    An application is two stacked products, 2(m + 1) d**3 multiply-adds:
    W = V [A*, B_1*, ..., B_m*] as m + 1 blocks, then [A, B_1, ..., B_m] times
    W stacked on top of each other.  In continuous mode block 0 of W is V in
    place of V A*, which is added afterwards.  With m = 0 the stacks are plain
    products, A (V A*) or A V + V A*, with the same bits and less overhead.
    V may also be a (t, d, d) stack.  Both stacks are formed once per map,
    not once per application; the returned function allocates its result
    and leaves the input untouched.
    """
    discrete = _check_mode(mode) == "discrete"
    d = spec.d
    if not spec.noise_mats:
        a, ah = spec.a, spec.a.conj().T
        if discrete:
            return lambda v: a @ (v @ ah)
        return lambda v: a @ v + v @ ah
    left = np.concatenate((spec.a, *spec.noise_mats), axis=1)
    right = np.stack([x.conj().T for x in (spec.a, *spec.noise_mats)])

    def apply(v: np.ndarray) -> np.ndarray:
        w = v[..., None, :, :] @ right
        if discrete:
            return left @ w.reshape(*w.shape[:-3], -1, d)
        vah = w[..., 0, :, :].copy()
        w[..., 0, :, :] = v
        out = left @ w.reshape(*w.shape[:-3], -1, d)
        out += vah
        return out

    return apply


def adjoint_moment_map(spec: SystemSpec, mode: str):
    """The adjoint V -> Phi*(V) = A* V A + sum_k B_k* V B_k (discrete) or
    V -> L*(V) = A* V + V A + sum_k B_k* V B_k (continuous).

    It is :func:`second_moment_map` of the adjoint system (A*, B_k*), so
    vec(Phi*(V)) = D* vec(V) and vec(L*(V)) = C* vec(V).
    """
    adjoint = SystemSpec(spec.a.conj().T, tuple(b.conj().T for b in spec.noise_mats))
    return second_moment_map(adjoint, mode)


def build_discrete_sum(spec: SystemSpec) -> np.ndarray:
    """The d**2-by-d**2 matrix D = conj(A) (x) A + sum_k conj(B_k) (x) B_k.

    Raises ``ValueError`` past the dense ceiling and ``OverflowError`` out of double range.
    """
    check_dense_rows(spec.d ** 2, "stochastic Kronecker sum D")
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(spec.a.conj(), spec.a)
        for b in spec.noise_mats:
            out += np.kron(b.conj(), b)
    return _finite(out, "stochastic Kronecker sum D")


def build_continuous_sum(spec: SystemSpec) -> np.ndarray:
    """The d**2-by-d**2 matrix C = conj(A) (x) I + I (x) A + sum_k conj(B_k) (x) B_k.

    Raises ``ValueError`` past the dense ceiling and ``OverflowError`` out of double range.
    """
    check_dense_rows(spec.d ** 2, "stochastic Kronecker sum C")
    eye = np.eye(spec.d, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.kron(spec.a.conj(), eye) + np.kron(eye, spec.a)
        for b in spec.noise_mats:
            out += np.kron(b.conj(), b)
    return _finite(out, "stochastic Kronecker sum C")


def real_sum(spec: SystemSpec, mode: str) -> np.ndarray:
    """D (discrete) or C (continuous) as the real d**2-by-d**2 matrix R = Re S + Im S Pi.

    Pi is the permutation with vec(X^T) = Pi vec(X).  R is the matrix of Phi
    or L in the Hermitian coordinates x = vec(Re H + Im H) of
    :func:`kronspec.matrices.real_vec`, an isometry, so spec(R) = spec(S) and
    e^(tR) is e^(tC) in those coordinates.  A real system gives R = Re S bit
    for bit.  S comes from :func:`build_discrete_sum` or
    :func:`build_continuous_sum`, with their ceiling and overflow checks.
    """
    discrete = _check_mode(mode) == "discrete"
    s = build_discrete_sum(spec) if discrete else build_continuous_sum(spec)
    n, d = s.shape[0], spec.d
    out = s.real.copy()
    columns = out.reshape(n, d, d)  # a view: column j d + i at [:, j, i]
    with np.errstate(over="ignore", invalid="ignore"):
        # column j d + i of Im S Pi is column i d + j of Im S
        columns += s.imag.reshape(n, d, d).swapaxes(1, 2)
    return _finite(out, f"real form of {'D' if discrete else 'C'}")


def _finite(out: np.ndarray, name: str) -> np.ndarray:
    """The one overflow rule of the builders: a non-finite entry is an ``OverflowError``."""
    if not np.all(np.isfinite(out)):
        raise OverflowError(f"{name} overflowed")
    return out


def _companion(spec: SystemSpec, mode: str, name: str) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        out = adjoint_moment_map(spec, mode)(np.eye(spec.d, dtype=np.complex128))
        # symmetrize away matmul roundoff so structural predicates pass exactly
        return _finite((out + out.conj().T) / 2.0, f"Hermitian companion {name}")


def build_discrete_gram(spec: SystemSpec) -> np.ndarray:
    """The d-by-d Hermitian PSD matrix N = Phi*(I) = A* A + sum_k B_k* B_k.

    Raises ``OverflowError`` when N leaves double-precision range.
    """
    return _companion(spec, "discrete", "N")


def build_continuous_gram(spec: SystemSpec) -> np.ndarray:
    """The d-by-d Hermitian matrix M = L*(I) = A + A* + sum_k B_k* B_k (indefinite in general).

    Raises ``OverflowError`` when M leaves double-precision range.
    """
    return _companion(spec, "continuous", "M")


@dataclass(frozen=True)
class BoundReport:
    """Bound interval for rho(D) (discrete) or alpha(C) (continuous).

    ``lower`` and ``upper`` are the extreme eigenvalues of the Hermitian
    companion; ``exact`` is the bracketed spectral quantity itself when a rung
    computed it (the closed form, the refined bracket's midpoint or the dense
    spectrum's value), else None, and ``eigenvalues`` the full spectrum of D
    or C behind a dense value, sorted by (real, imaginary) part.
    """

    lower: float
    upper: float
    exact: float | None
    mode: str
    eigenvalues: np.ndarray | None = field(default=None, compare=False, repr=False)
    #: Provenance: the ladder rung behind ``exact`` ("bounds" when there is
    #: none; see the module docstring), the width of rung 3's last valid
    #: bracket and the map applications rung 3 spent (None and 0 when it did
    #: not run).
    rung: str = field(default="bounds", compare=False)
    bracket_width: float | None = field(default=None, compare=False)
    map_applications: int = field(default=0, compare=False)


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


def bound_report(spec: SystemSpec, mode: str) -> BoundReport:
    """The companion bounds: extreme eigenvalues of N (discrete) or M (continuous).

    A d-by-d Hermitian eigensolve; the rungs that compute the spectral value
    itself live in :func:`classify_stability`.
    """
    discrete = _check_mode(mode) == "discrete"
    lower, upper = hermitian_extremes(
        build_discrete_gram(spec) if discrete else build_continuous_gram(spec)
    )
    report = BoundReport(lower=lower, upper=upper, exact=None, mode=mode)
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


def _closed_form(spec: SystemSpec, mode: str) -> float:
    """Rung 2, for m = 0: rho(D) = rho(A)**2, alpha(C) = 2 max Re lambda(A)."""
    w = eigenvalues(spec.a)
    if mode == "discrete":
        return float(np.max(np.abs(w))) ** 2
    return 2.0 * float(np.max(w.real))


def _narrow(lower: float, upper: float) -> bool:
    return upper - lower <= _BRACKET_RTOL * max(1.0, abs(lower), abs(upper))


def _refined_bracket(spec: SystemSpec, mode: str) -> tuple[tuple[float, float] | None, int]:
    """Rung 3: the last valid Collatz-Wielandt bracket and the map applications spent.

    Thick-restarted Arnoldi on Phi* (discrete) or L* (continuous) from V = I,
    over d-by-d matrices under the real inner product Re tr(X* Y).  A step
    takes no Hermitian part: the basis stays Hermitian up to roundoff, and
    its second Gram-Schmidt pass runs only when the first leaves less than
    1/sqrt(2) of the norm (Daniel, Gragg, Kaufman and Stewart, 1976).  After
    each cycle the Hermitian part of the rightmost Ritz matrix, signed to
    positive trace, is V; when it is positive definite, V = F F* gives the
    bracket [lam_min, lam_max] of F^-1 Phi*(V) F^-* (or of F^-1 L*(V) F^-*).
    Since rho(D) is both the largest-modulus and the rightmost eigenvalue of
    Phi*, one rule serves both modes.  The next cycle keeps the span of the
    rightmost Ritz vectors (real and imaginary parts of a conjugate pair),
    as Krylov-Schur does with Schur vectors (Stewart, 2001), and extends it
    from the residual.  A happy breakdown leaves an invariant subspace, whose
    Ritz values are exact, and ends the run.  Lost orthogonality can only
    slow convergence: each bracket comes from an explicit V.  The bracket is
    None when no Ritz matrix was positive definite.
    """
    apply = adjoint_moment_map(spec, mode)
    d = spec.d
    dim = min(_KRYLOV_DIM, d * d)
    basis = np.empty((dim + 1, d, d), dtype=np.complex128)
    # Re tr(X* Y) is the dot product of the float views
    flat = basis.view(np.float64).reshape(dim + 1, -1)
    hess = np.zeros((dim + 1, dim))
    basis[0] = np.eye(d) / math.sqrt(d)
    bracket, steps, brackets, kept = None, 0, 0, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            n, broke = min(dim, kept + _MAX_STEPS - steps), False
            for j in range(kept, n):
                basis[j + 1] = apply(basis[j])
                row = flat[j + 1]
                scale = math.sqrt(row @ row)
                coef = flat[: j + 1] @ row
                row -= coef @ flat[: j + 1]
                norm = math.sqrt(row @ row)
                if norm < math.sqrt(0.5) * scale:
                    again = flat[: j + 1] @ row
                    row -= again @ flat[: j + 1]
                    coef += again
                    norm = math.sqrt(row @ row)
                hess[: j + 1, j] = coef
                hess[j + 1, j] = norm
                if not norm > 1e-12 * scale:  # also ends the run on a non-finite image
                    n, broke = j + 1, True
                    break
                row /= norm
            steps += n - kept
            if not np.all(np.isfinite(hess[:n, :n])):
                break
            theta, y = np.linalg.eig(hess[:n, :n])
            order = np.argsort(-theta.real, kind="stable")
            ritz = y[:, order[0]]
            ritz = ritz * np.conj(ritz[np.argmax(np.abs(ritz))])  # largest entry real
            v = np.tensordot(ritz.real, basis[:n], axes=1)
            v = (v + v.conj().T) / 2.0
            if np.trace(v).real < 0:
                v = -v
            try:
                inv = np.linalg.inv(np.linalg.cholesky(v))
            except np.linalg.LinAlgError:
                pass
            else:
                image = inv @ apply(v) @ inv.conj().T
                brackets += 1
                if not np.all(np.isfinite(image)):
                    break
                bracket = hermitian_extremes((image + image.conj().T) / 2.0)
                if _narrow(*bracket):
                    break
            # with n <= _KEEP + 1 the kept directions would leave no room to extend
            if broke or steps >= _MAX_STEPS or n <= _KEEP + 1:
                break
            # thick restart: q spans an invariant subspace of H, so with
            # Q_k = basis q the map's Krylov relation becomes
            # apply(Q_k) = Q_k (q^T H q) + basis[n] h_(n+1,n) q[n-1]
            cols = []
            for i in order[:_KEEP]:
                if theta[i].imag >= 0:  # a conjugate pair lists +imag first
                    cols.append(y[:, i].real)
                if theta[i].imag > 0:
                    cols.append(y[:, i].imag)
            q = np.linalg.qr(np.array(cols).T)[0]
            kept = q.shape[1]
            basis[:kept] = np.tensordot(q.T, basis[:n], axes=1)
            basis[kept] = basis[n]
            head = q.T @ hess[:n, :n] @ q
            residual = hess[n, n - 1] * q[n - 1]
            hess[:] = 0.0
            hess[:kept, :kept] = head
            hess[kept, :kept] = residual
    return bracket, steps + brackets


def _decide(report: BoundReport) -> StabilityVerdict:
    check_bound_chain(report)
    return verdict_from_report(report)


def classify_stability(
    spec: SystemSpec, mode: str, allow_exact_fallback: bool = False
) -> StabilityVerdict:
    """Certify mean-square stability of the system in the given mode.

    This is the one place a verdict is made.  The cheap Hermitian bounds are
    always tried first.  When they are inconclusive and
    ``allow_exact_fallback`` is set, the rest of the ladder in the module
    docstring settles the spectral value: the closed form (m = 0), the refined
    bracket, and the dense d**2 eigensolve only when the bracket does not
    decide (a ``ValueError`` past d = 64).  The report's ``rung``,
    ``bracket_width`` and ``map_applications`` record which rung decided and
    what rung 3 cost; ``eigenvalues`` is filled on the dense rung only.
    """
    report = bound_report(spec, mode)
    verdict = verdict_from_report(report)
    if verdict.status is not StabilityStatus.INDETERMINATE or not allow_exact_fallback:
        return verdict
    if not spec.noise_mats:
        return _decide(replace(report, exact=_closed_form(spec, mode), rung="closed-form"))
    bracket, applications = _refined_bracket(spec, mode)
    report = replace(report, bracket_width=None if bracket is None else bracket[1] - bracket[0],
                     map_applications=applications)
    if bracket is not None and _narrow(*bracket):
        lower, upper = bracket
        threshold = verdict.threshold
        if upper < threshold - BOUNDARY_TOL or lower > threshold + BOUNDARY_TOL:
            return _decide(replace(report, exact=(lower + upper) / 2.0, rung="refined"))
    summary = summarize(real_sum(spec, mode))
    return _decide(replace(report, exact=summary.radius if mode == "discrete" else summary.abscissa,
                           eigenvalues=summary.eigenvalues, rung="dense"))
