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

(vec Phi(V) = D vec V, vec L(V) = C vec V), and N = Phi*(I), M = L*(I).
Both maps keep Hermitian matrices Hermitian, so on the real space of Hermitian
matrices they are real-linear.  :func:`build_discrete_sum` and
:func:`build_continuous_sum` give D and C as their real d**2-by-d**2 matrix
R = Re S + Im S Pi (S = D or C) in the coordinates of
:func:`kronspec.matrices.real_vec`, with spec(R) = spec(S), without forming S.
The dense rung takes the spectrum of R, and both Kronecker routes of
:mod:`kronspec.evolution` apply it (its powers or its exponential); a real
eigensolve or Pade product costs about half its complex counterpart.

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
   rightmost Ritz vectors.  A cycle takes its bracket only when the Arnoldi
   residual of that Ritz pair is within ``1e-7`` of max(1, |theta|), or when
   it is the run's last cycle; a bracket never feeds the iteration, so a
   skipped one saves its map application and changes nothing else.  It
   decides once the bracket is narrower than ``1e-7`` relative and clears
   the threshold by more than :data:`BOUNDARY_TOL`.
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
from .spectral import check_budget, check_dense_rows, eigenvalues, hermitian_extremes, summarize

#: Verdicts within this distance of the threshold are not certified either way.
BOUNDARY_TOL = 1e-9

#: Relative slack allowed before a bound-chain violation is treated as a bug.
CHAIN_TOL = 1e-8

_MODES = ("discrete", "continuous")

#: Rung 3's Krylov dimension (capped at d**2), the Ritz directions a thick
#: restart keeps, and its budget: at most 240 Arnoldi steps, each one map
#: application, plus one application per bracket taken.
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


#: Multiply-adds charged for each d-by-d product of a map application, on top
#: of its d**3: numpy's per-call overhead, about 4.5 us against 0.13-0.2 ns per
#: multiply-add at large d (complex, 2 cores), so a product at d <= 32 costs
#: about as much as one at d = 32.  An application makes two stacked products
#: (:func:`second_moment_map`), so this overcharges small d; the charge stays
#: so that the budget refuses the same inputs.
_PRODUCT_OVERHEAD = 32 ** 3

#: Most multiply-adds of map applications one run may take, charged by
#: :func:`_check_work` as applications x (2m + 2) products x (d**3 +
#: _PRODUCT_OVERHEAD): about 10-35 s of work at any d.  The discrete
#: recursion counts one application per step; the Taylor route of
#: :mod:`kronspec.evolution` counts the applications of its plan from beta
#: alone (which bounds every plan the power norms can choose) plus
#: ``evolution._NORMEST_APPLICATIONS`` when the norms are taken.  Both are
#: checked before the first map is built.
_MAX_MAP_WORK = 100_000_000_000


def _check_work(spec: SystemSpec, what: str, applications: float, detail: str = "") -> None:
    """``ValueError`` for ``applications`` map applications over :data:`_MAX_MAP_WORK`.

    Each is charged (2m + 2) products of d**3 + :data:`_PRODUCT_OVERHEAD`
    multiply-adds, the price of one :func:`second_moment_map` application
    with per-call overhead; a count that is not finite is refused too.
    """
    work = applications * (2 * spec.m + 2) * (spec.d ** 3 + _PRODUCT_OVERHEAD)
    check_budget(work, _MAX_MAP_WORK,
                 f"{what} needs {{:.3g}} map applications, {{:.3g}} multiply-adds{detail}",
                 applications, work)


def adjoint_moment_map(spec: SystemSpec, mode: str):
    """The adjoint V -> Phi*(V) = A* V A + sum_k B_k* V B_k (discrete) or
    V -> L*(V) = A* V + V A + sum_k B_k* V B_k (continuous).

    It is :func:`second_moment_map` of the adjoint system (A*, B_k*), so
    vec Phi*(V) = D* vec V and vec L*(V) = C* vec V.
    """
    adjoint = SystemSpec(spec.a.conj().T, tuple(b.conj().T for b in spec.noise_mats))
    return second_moment_map(adjoint, mode)


def build_discrete_sum(spec: SystemSpec) -> np.ndarray:
    """D = conj(A) (x) A + sum_k conj(B_k) (x) B_k as its real form R (:func:`_kronecker_sum`).

    Raises ``ValueError`` past the dense ceiling and ``OverflowError`` out of double range.
    """
    return _kronecker_sum(spec, "D", [(spec.a.conj(), spec.a)])


def build_continuous_sum(spec: SystemSpec) -> np.ndarray:
    """C = conj(A) (x) I + I (x) A + sum_k conj(B_k) (x) B_k as its real form R.

    Raises ``ValueError`` past the dense ceiling and ``OverflowError`` out of double range.
    """
    eye = np.eye(spec.d, dtype=np.complex128)
    return _kronecker_sum(spec, "C", [(spec.a.conj(), eye), (eye, spec.a)])


def _kronecker_sum(spec: SystemSpec, name: str, drift: list) -> np.ndarray:
    """R = Re S + Im S Pi for S the sum of x (x) y over ``drift``, then of conj(B_k) (x) B_k.

    Pi is the permutation with vec X^T = Pi vec X.  R is the matrix of Phi
    or L in the Hermitian coordinates x = vec X, X = Re H + Im H, of
    :func:`kronspec.matrices.real_vec`, an isometry, so spec(R) = spec(S) and
    e^(tR) is e^(tC) in those coordinates.  A real system gives R = Re S bit
    for bit.  R is written one row slab per first Kronecker index i: slab i
    of S, entry [k, j, l] = row i d + k, column j d + l, sums the terms in
    order, each the broadcast complex product ``np.kron`` takes, so it has
    the bits of the ``np.kron`` formula; slab i of R is its real part plus
    its imaginary part with j and l swapped (column j d + l of Im S Pi is
    column l d + j of Im S).  The ceiling is checked before anything is
    allocated, and R is held with two complex slabs of d**3 entries.  A
    non-finite entry, from S or from the sum of its parts, is an
    ``OverflowError``.
    """
    d = spec.d
    check_dense_rows(d ** 2, f"stochastic Kronecker sum {name}")
    (x0, y0), *rest = [*drift, *((b.conj(), b) for b in spec.noise_mats)]
    out = np.empty((d, d, d, d))
    slab = np.empty((d, d, d), dtype=np.complex128)
    scratch = np.empty_like(slab)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(d):
            np.multiply(x0[i][None, :, None], y0[:, None, :], out=slab)
            for x, y in rest:
                np.multiply(x[i][None, :, None], y[:, None, :], out=scratch)
                slab += scratch
            np.add(slab.real, slab.imag.swapaxes(1, 2), out=out[i])
    return _finite(out.reshape(d * d, d * d), f"real form of {name}")


def _finite(out: np.ndarray, name: str) -> np.ndarray:
    """The one overflow rule of the builders: a non-finite entry is an ``OverflowError``."""
    if not np.isfinite(out).all():
        raise OverflowError(f"{name} overflowed")
    return out


def _companion(spec: SystemSpec, mode: str, name: str) -> np.ndarray:
    check_dense_rows(spec.d, f"Hermitian companion {name}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = adjoint_moment_map(spec, mode)(np.eye(spec.d, dtype=np.complex128))
        # symmetrize away matmul roundoff so structural predicates pass exactly
        return _finite((out + out.conj().T) / 2.0, f"Hermitian companion {name}")


def build_discrete_gram(spec: SystemSpec) -> np.ndarray:
    """The d-by-d Hermitian PSD matrix N = Phi*(I) = A* A + sum_k B_k* B_k.

    Raises ``ValueError`` past the dense ceiling, which its eigensolve
    would refuse, before any work, and ``OverflowError`` when N leaves
    double-precision range.
    """
    return _companion(spec, "discrete", "N")


def build_continuous_gram(spec: SystemSpec) -> np.ndarray:
    """The d-by-d Hermitian matrix M = L*(I) = A + A* + sum_k B_k* B_k (indefinite in general).

    Raises ``ValueError`` past the dense ceiling, which its eigensolve
    would refuse, before any work, and ``OverflowError`` when M leaves
    double-precision range.
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


def _band_side(lower: float, upper: float, threshold: float) -> int:
    """Where [lower, upper] lies against the verdict band, threshold +- :data:`BOUNDARY_TOL`.

    -1 below the band, 1 above it, 0 when the interval touches it.  Every
    rung decides through it: the companion interval, an exact value as
    [exact, exact], and rung 3's bracket.
    """
    if upper < threshold - BOUNDARY_TOL:
        return -1
    return 1 if lower > threshold + BOUNDARY_TOL else 0


def verdict_from_report(report: BoundReport) -> StabilityVerdict:
    """Decide stability from an existing bound report.

    Bounds are decisive when the whole interval clears the threshold; the
    exact value, when the report carries one, settles the rest.
    Values within :data:`BOUNDARY_TOL` of the threshold stay Indeterminate
    (:func:`_band_side`): floating point cannot certify marginal stability.
    """
    threshold = stability_threshold(report.mode)
    side = _band_side(report.lower, report.upper, threshold)
    stable, unstable = StabilityStatus.CERTIFIED_STABLE, StabilityStatus.CERTIFIED_UNSTABLE
    if not side and report.exact is not None:
        side = _band_side(report.exact, report.exact, threshold)
        stable, unstable = StabilityStatus.EXACT_STABLE, StabilityStatus.EXACT_UNSTABLE
    status = (stable if side < 0 else unstable) if side else StabilityStatus.INDETERMINATE
    return StabilityVerdict(status=status, evidence=report, threshold=threshold)


def _closed_form(spec: SystemSpec, mode: str) -> float:
    """Rung 2, for m = 0: rho(D) = rho(A)**2, alpha(C) = 2 max Re lambda(A)."""
    w = eigenvalues(spec.a)
    if mode == "discrete":
        return float(np.max(np.abs(w))) ** 2
    return 2.0 * float(np.max(w.real))


def _width(lower: float, upper: float) -> float:
    """A bracket's width relative to max(1, |ends|), narrow at :data:`_BRACKET_RTOL`."""
    return (upper - lower) / max(1.0, abs(lower), abs(upper))


def _may_decide(residual: complex, theta: complex) -> bool:
    """Rung 3's bracket gate: the Arnoldi residual of the rightmost Ritz pair is small.

    ``residual`` is h_(n+1,n) y_n for the unit Ritz vector y of ``theta``, so
    its modulus is the norm of Phi*(Q y) - theta Q y (or of the L* form), the
    convergence test of ARPACK (Lehoucq, Sorensen and Yang, 1998).
    """
    return abs(residual) <= _BRACKET_RTOL * max(1.0, abs(theta))


def _refined_bracket(spec: SystemSpec, mode: str) -> tuple[tuple[float, float] | None, int]:
    """Rung 3: the last Collatz-Wielandt bracket taken and the map applications spent.

    Thick-restarted Arnoldi on Phi* (discrete) or L* (continuous) from V = I,
    over d-by-d matrices under the real inner product Re tr(X* Y).  A step
    takes no Hermitian part: the basis stays Hermitian up to roundoff, and
    its second Gram-Schmidt pass runs only when the first leaves less than
    1/sqrt(2) of the norm (Daniel, Gragg, Kaufman and Stewart, 1976).  After
    each cycle the Hermitian part of the rightmost Ritz matrix, signed to
    positive trace, is V; when it is positive definite, V = F F* gives the
    bracket [lam_min, lam_max] of F^-1 Phi*(V) F^-* (or of F^-1 L*(V) F^-*).
    A cycle forms V and takes that bracket, at one map application, only
    when :func:`_may_decide` passes its rightmost Ritz pair or the cycle ends
    the run (breakdown, the step budget, or no room left to restart), so an
    undecided run still reports its final cycle's bracket.  A bracket more
    than half as wide as the one taken before it (relative to max(1, |ends|))
    has stalled and ends the run too: with a nearly singular Perron matrix
    the residual reaches zero while the bracket stops narrowing.  A bracket
    never feeds the iteration, so skipping one changes only the count and
    the pairs the stall test compares, unless the skipped bracket was
    already narrow: on the test and benchmark systems every narrow bracket
    came with a residual at most a fifth of the gate's.
    Since rho(D) is both the largest-modulus and the rightmost eigenvalue of
    Phi*, one rule serves both modes.  The next cycle keeps the span of the
    rightmost Ritz vectors (real and imaginary parts of a conjugate pair),
    as Krylov-Schur does with Schur vectors (Stewart, 2001), and extends it
    from the residual.  A happy breakdown leaves an invariant subspace, whose
    Ritz values are exact, and ends the run.  Lost orthogonality can only
    slow convergence: each bracket comes from an explicit V.  The bracket is
    None when no bracket was taken from a positive definite V.
    """
    apply = adjoint_moment_map(spec, mode)
    d = spec.d
    dim = min(_KRYLOV_DIM, d * d)
    basis = np.empty((dim + 1, d, d), dtype=np.complex128)
    # Re tr(X* Y) is the dot product of the float views
    flat = basis.view(np.float64).reshape(dim + 1, -1)
    hess = np.zeros((dim + 1, dim))
    basis[0] = np.eye(d) / math.sqrt(d)
    bracket, steps, brackets, kept, width = None, 0, 0, 0, math.inf
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
            # with n <= _KEEP + 1 the kept directions would leave no room to extend
            last = broke or steps >= _MAX_STEPS or n <= _KEEP + 1
            if last or _may_decide(hess[n, n - 1] * ritz[n - 1], theta[order[0]]):
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
                    ends = np.linalg.eigvalsh((image + image.conj().T) / 2.0)
                    bracket = float(ends[0]), float(ends[-1])
                    width, before = _width(*bracket), width
                    if width <= _BRACKET_RTOL or width > before / 2.0:
                        break
            if last:
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
    if (bracket is not None and _width(*bracket) <= _BRACKET_RTOL
            and _band_side(*bracket, verdict.threshold)):
        return _decide(replace(report, exact=(bracket[0] + bracket[1]) / 2.0, rung="refined"))
    summary = summarize(build_discrete_sum(spec) if mode == "discrete"
                        else build_continuous_sum(spec))
    return _decide(replace(report, exact=summary.radius if mode == "discrete" else summary.abscissa,
                           eigenvalues=summary.eigenvalues, rung="dense"))
