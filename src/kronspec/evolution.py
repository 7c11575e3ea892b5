"""Exact propagation of covariance matrices and second moments.

Two independent computational routes are provided for each time direction and
used as mutual oracles:

* discrete: the one-step recursion ``V -> A V A* + sum_k B_k V B_k*`` versus
  powers of the discrete stochastic Kronecker sum D;
* continuous: truncated Taylor series for ``e^(tL)`` applied to d-by-d
  matrices, ``L(V) = A V + V A* + sum_k B_k V B_k*``, versus the matrix
  exponential of the continuous stochastic Kronecker sum C, the dense matrix of L.

Both Kronecker routes work in real Hermitian coordinates: D or C is the real
R of :func:`kronsum.build_discrete_sum` or :func:`kronsum.build_continuous_sum`,
applied to the two real columns of :func:`matrices.real_vec`, and every V(j)
or V(t) maps back through
:func:`matrices.real_unvec`.  V, not its coordinates, is checked for
overflow: finite coordinates off the diagonal may sum past double range.
The discrete route checks its whole trajectory once, after the last step,
and names the first step that overflowed.  The continuous route's real
Pade costs about half a complex one, and a grid time exactly 2**i times an
earlier one squares that time's exponential i times rather than computing
its own, where that gives the same bits.  :func:`matrix_exponential`
works in six buffers the size of R, plus the copies numpy's solve makes,
so the route holds at most 8 matrices of R's size: R, the exponential kept
for a later time and the one in progress.  The Taylor route,
:func:`_taylor_on_grid`, never builds C.

Every route starts from V(0) = u v*, formed in one place and checked for
overflow.  :func:`exact_covariance` is V at one horizon alone, the value Monte
Carlo checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .kronsum import (
    _check_mode,
    _check_work,
    _finite,
    adjoint_moment_map,
    build_continuous_sum,
    build_discrete_sum,
    second_moment_map,
)
from .matrices import (
    SystemSpec,
    as_complex_vector,
    as_matrix,
    real_unvec,
    real_vec,
    _require_square,
)
from .spectral import check_budget

#: theta_m of Al-Mohy and Higham, "Computing the action of the matrix
#: exponential", SIAM J. Sci. Comput. 33(2), 2011, Table A.3 for unit roundoff
#: 2**-53: when a substep's alpha (see :func:`_taylor_on_grid`) is at most
#: theta_m, its degree-m Taylor polynomial is e^X up to a relative backward
#: error of 2**-53.  Degrees 1-30 and every fifth to 55.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54, 35: 4.7, 40: 6.0,
    45: 7.2, 50: 8.5, 55: 9.9,
}
_DEGREES = np.array(list(_THETA))
_THETAS = np.array(list(_THETA.values()))

#: Their p_max and m_max: alpha_p for p = 2..p_max, needing |X^p|_1 up to
#: p = p_max + 1, and degrees up to m_max.
_P_MAX = 8
_M_MAX = 55

#: Their condition (3.13) for 2 estimator columns: up to this h beta (63.4)
#: the plan from beta alone costs too little for norm estimates to pay.  At
#: d <= 8 the norms are exact and cheaper, and are taken once h beta passes
#: theta_55, where beta alone needs a second substep.
_ESTIMATE_ABOVE = 4.0 * _THETA[_M_MAX] * _P_MAX * (_P_MAX + 3) / _M_MAX

#: Iterations of the block 1-norm estimator per power: each takes one product
#: with (C - mu I)**p on a stack of 2 matrices, and all but the last one
#: with its adjoint.  The first products of all powers share one chain.
_NORMEST_ITERATIONS = 5

#: Most map applications the estimates take (722), a stacked pair counted as
#: two.  The exact norms (:func:`_exact_norms`) run instead while
#: (p_max + 1) d**2 is no more (d <= 8), so this prices them with room to
#: spare: they apply the map to the d**2 unit matrices once
#: (:func:`_generator_powers`), and their p_max dense d**2-by-d**2 products
#: take less time than p_max more applications to that stack would.
_NORMEST_APPLICATIONS = 2 * (_P_MAX + 1 + (2 * _NORMEST_ITERATIONS - 2) * sum(range(2, _P_MAX + 2)))

#: A substep's series on the map stops once two consecutive terms fall under
#: this fraction of the partial sum (1-norms of the matrices' entries).
_UNIT_ROUNDOFF = 2.0 ** -53

#: Most bytes a discrete trajectory may hold: it keeps every V(j), so an
#: unbounded step count would grow memory until the process dies.  A step
#: costs 16 d**2 bytes in the stacked array plus _STEP_EXTRA_BYTES for its
#: float64 second moment and its index, an int in a tuple (48 as traced).
_MAX_TRAJECTORY_BYTES = 64_000_000
_STEP_EXTRA_BYTES = 64


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Covariance matrices indexed by step number (discrete) or time (continuous).

    ``second_moments`` holds the trace of each matrix (the mean squared norm
    of the state) and is populated only when the two initial vectors coincide,
    since only then is the trace that second moment.
    """

    mode: str
    index: tuple
    values: np.ndarray                 # stacked: values[i] is the matrix at index[i]
    second_moments: np.ndarray | None


def _initial_outer(spec: SystemSpec, u, v) -> tuple[np.ndarray, np.ndarray, bool]:
    u = as_complex_vector(u, "initial vector u")
    v = as_complex_vector(v, "initial vector v")
    if u.shape[0] != spec.d or v.shape[0] != spec.d:
        raise ValueError(
            f"initial vectors must have dimension {spec.d}, "
            f"got {u.shape[0]} and {v.shape[0]}"
        )
    same = bool(np.array_equal(u, v))
    return u, v, same


def _initial_covariance(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V(0) = u v*, an ``OverflowError`` when it leaves double range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(np.outer(u, v.conj()), "initial covariance u v*")


def _whole_steps(n) -> int:
    """``n`` as a step count: 3.0 runs as 3; a negative or fractional ``n`` is a ``ValueError``."""
    if not (n >= 0 and n % 1 == 0):
        raise ValueError(f"step count must be a nonnegative whole number, got {n}")
    return int(n)


def _traj(mode, index, values, same) -> CovarianceTrajectory:
    values = np.asarray(values)
    moments = np.trace(values, axis1=1, axis2=2).real if same else None
    return CovarianceTrajectory(
        mode=mode, index=tuple(index), values=values, second_moments=moments
    )


def propagate_discrete(
    spec: SystemSpec, u, v, n: int, route: str = "direct"
) -> CovarianceTrajectory:
    """Covariance trajectory V(0..n) from V(0) = u v*.

    ``route="direct"`` iterates the one-step recursion on d-by-d matrices
    (:func:`_recursion`, with its work budget); ``route="kronecker"`` iterates
    x <- R x on the real Hermitian coordinates x of V(0), with R the
    d**2-by-d**2 real form of D (:func:`kronsum.build_discrete_sum`), and
    maps each x back; one check after the last step names the first V(j) that
    overflowed.  The two agree to roundoff and serve as mutual oracles.  A
    trajectory over :data:`_MAX_TRAJECTORY_BYTES` is a ``ValueError`` before
    any step.
    """
    n = _whole_steps(n)
    if route not in ("direct", "kronecker"):
        raise ValueError(f"route must be 'direct' or 'kronecker', got {route!r}")
    size = (n + 1) * (16 * spec.d ** 2 + _STEP_EXTRA_BYTES)
    check_budget(size, _MAX_TRAJECTORY_BYTES, f"trajectory of {n} steps holds {{:.3g}} bytes", size)
    u, v, same = _initial_outer(spec, u, v)
    values = np.empty((n + 1, spec.d, spec.d), dtype=np.complex128)
    values[0] = _initial_covariance(u, v)
    if route == "direct":
        for j, value in enumerate(_recursion(spec, values[0], n), 1):
            values[j] = value
    else:
        rmat = build_discrete_sum(spec)
        x = real_vec(values[0])
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(1, n + 1):
                x = rmat @ x
                values[j] = real_unvec(x, spec.d)
        # min and max over the float view: finite exactly when every entry is,
        # with no boolean copy of the trajectory
        parts = values.view(np.float64)
        if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
            for j in range(1, n + 1):
                _finite(values[j], f"covariance propagation at step {j}")
    return _traj("discrete", range(n + 1), values, same)


def _recursion(spec: SystemSpec, v0: np.ndarray, n: int):
    """V(1), ..., V(n) of the one-step recursion from V(0) = v0, one at a time.

    Its n map applications are priced by :func:`_check_work` before the map is built.
    """
    _check_work(spec, f"the recursion to step {n}", n)
    phi = second_moment_map(spec, "discrete")
    value = v0
    for j in range(1, n + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            value = _finite(phi(value), f"covariance propagation at step {j}")
        yield value


#: Coefficients of the degree-13 diagonal Pade approximant to exp.
_PADE_COEFFS = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)

#: Largest 1-norm at which the degree-13 approximant is accurate to unit
#: roundoff (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).
_THETA_13 = 5.371920351148152


def _pade_approx(m: np.ndarray) -> np.ndarray:
    """The degree-13 Pade approximant (V - U)**-1 (V + U) to e**m, in six n-by-n buffers.

    U = m (m6 (c13 m6 + c11 m4 + c9 m2) + c7 m6 + c5 m4 + c3 m2 + c1 I) and
    V = m6 (c12 m6 + c10 m4 + c8 m2) + c6 m6 + c4 m4 + c2 m2 + c0 I are each
    evaluated in that operation order, so the bits are those of the
    expressions.  The buffers are m, its powers m2, m4 and m6, and two
    accumulators, each term passing through whichever one is free; m turns
    scratch once U is formed, and the powers are released before the solve.
    m is overwritten, and the caller may reuse it as scratch.
    """
    c = _PADE_COEFFS
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    x = c[13] * m6
    y = np.empty_like(m6)
    _add_terms(x, y, (c[11], c[9]), (m4, m2))
    np.matmul(m6, x, out=y)
    _add_terms(y, x, (c[7], c[5], c[3]), (m6, m4, m2))
    _add_identity(y, c[1])
    u = np.matmul(m, y, out=x)
    np.multiply(c[12], m6, out=y)
    _add_terms(y, m, (c[10], c[8]), (m4, m2))
    vv = np.matmul(m6, y, out=m)
    _add_terms(vv, y, (c[6], c[4], c[2]), (m6, m4, m2))
    _add_identity(vv, c[0])
    del m2, m4, m6
    np.subtract(vv, u, out=y)
    vv += u
    del u, x
    return np.linalg.solve(y, vv)


def _add_terms(acc: np.ndarray, scratch: np.ndarray, coeffs, powers) -> None:
    """acc += c p for each coefficient c and power p in turn, each c p formed in scratch."""
    for c, p in zip(coeffs, powers):
        np.multiply(c, p, out=scratch)
        acc += scratch


def _add_identity(acc: np.ndarray, c: float) -> None:
    """acc += c I as ``c * eye`` adds it: c on the diagonal, +0.0 off it, so -0.0 turns +0.0."""
    acc += 0.0
    acc.reshape(-1)[:: acc.shape[0] + 1] += c


def _squared(x: np.ndarray, times: int, spare: np.ndarray | None = None) -> np.ndarray:
    """x squared ``times`` times, the products ping-ponging between two buffers.

    The first product goes to ``spare`` (a new buffer when it is None), the
    second back into x, and so on, so x is overwritten from the second
    squaring on.
    """
    for _ in range(times):
        spare = np.matmul(x, x, out=spare)
        x, spare = spare, x
    return x


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """``exp(t * a)`` by scaling-and-squaring with the degree-13 Pade approximant.

    ``t * a`` is halved ``s = max(0, ceil(log2(|t a|_1 / theta_13)))`` times,
    the approximant taken, and the result squared ``s`` times.  Accurate to
    roughly unit roundoff for well-scaled inputs; a t a whose 1-norm
    overflows, and an overflowing result, are an ``OverflowError``.  Real
    input gives a real (float64) result, computed in real arithmetic;
    complex input is computed in complex128.  The working set is six n-by-n
    buffers (:func:`_pade_approx`) plus the copies :func:`numpy.linalg.solve`
    makes; the squarings ping-pong between two of them.
    """
    name = "matrix_exponential input"
    a = _require_square(as_matrix(a, name), name)
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = t * a
        norm1 = float(np.linalg.norm(m, 1))
    if not math.isfinite(norm1):
        raise OverflowError("matrix exponential: the 1-norm of t*a overflowed")
    if norm1 == 0.0:
        return np.eye(m.shape[0], dtype=m.dtype)
    squarings = int(math.ceil(math.log2(max(norm1 / _THETA_13, 1.0))))
    with np.errstate(over="ignore", invalid="ignore"):
        # the Pade step writes into m and its diagonal, which need C order
        m = np.ascontiguousarray(m)
        m /= 2.0 ** squarings
        result = _squared(_pade_approx(m), squarings, m)
        return _finite(result, f"matrix exponential (1-norm of t*a is {norm1:.3g})")


def _shift(spec: SystemSpec) -> tuple[float, np.ndarray, float]:
    """mu = tr(C)/d**2, the drift A - mu/2 I of the system whose generator is L - mu, and beta.

    mu = 2 Re tr(A)/d + sum_k |tr B_k|**2/d**2, and beta = 2 |A - mu/2 I|_1 +
    sum_k |B_k|_1**2 bounds |C - mu I|_1 without forming C.  Either may
    overflow; the caller checks.
    """
    d = spec.d
    with np.errstate(over="ignore", invalid="ignore"):
        mu = float(2.0 * np.trace(spec.a).real / d
                   + sum(abs(np.trace(b)) ** 2 for b in spec.noise_mats) / d ** 2)
        shifted = spec.a - (mu / 2.0) * np.eye(d)
        beta = float(2.0 * np.linalg.norm(shifted, 1)
                     + sum(np.linalg.norm(b, 1) ** 2 for b in spec.noise_mats))
    return mu, shifted, beta


def _power(apply, x: np.ndarray, p: int) -> np.ndarray:
    for _ in range(p):
        x = apply(x)
    return x


def _normest(forward, backward, p: int, y: np.ndarray) -> float:
    """Block 1-norm estimate of ``forward**p``, a linear map on stacks of d-by-d matrices.

    Higham and Tisseur, SIAM J. Matrix Anal. Appl. 21(4), 2000, Algorithm
    2.4 for complex matrices, from ``y``, the image under ``forward**p`` of a
    (t, d, d) stack of unit 1-norm, with ``backward`` the adjoint of
    ``forward``: at most :data:`_NORMEST_ITERATIONS` images, each after the
    first taken of unit matrices that a product with ``backward**p`` picks.
    The estimate is the 1-norm of an image of a unit vector, so it never
    exceeds the norm.
    """
    t, d, _ = y.shape
    n = d * d
    used = np.zeros(n, dtype=bool)
    est, ind, best = 0.0, None, 0
    for k in range(_NORMEST_ITERATIONS):
        if k:
            x = np.zeros((len(ind), n), dtype=np.complex128)
            x[np.arange(len(ind)), ind] = 1.0
            y = _power(forward, x.reshape(len(ind), d, d), p)
        y = y.reshape(len(y), n)
        sums = np.abs(y).sum(axis=1)
        j = int(np.argmax(sums))
        if k and not sums[j] > est:
            break
        est = float(sums[j])
        if ind is not None:
            best = ind[j]
        if k == _NORMEST_ITERATIONS - 1:
            break
        mag = np.abs(y)
        sign = np.divide(y, mag, out=np.ones_like(y), where=mag > 0)
        h = np.abs(_power(backward, sign.reshape(len(y), d, d), p).reshape(len(y), n)).max(axis=0)
        order = np.argsort(-h, kind="stable")
        if (k and h[order[0]] <= h[best]) or used[order[:t]].all():
            break
        ind = order[~used[order]][:t]
        used[ind] = True
    return est


def _generator_powers(system: SystemSpec) -> tuple[np.ndarray, int]:
    """S, S**2, ..., S**(p_max + 1) stacked, and e, where S = 2**-e K^T and K
    is the d**2-by-d**2 matrix of X, the generator of ``system``.

    Row k of K^T is X(E_k) raveled, E_k the k-th unit matrix, so that
    X(V).ravel() = V.ravel() @ K^T: one stacked application of X to the d**2
    unit matrices builds it, not :func:`kronsum.build_continuous_sum`.  e is
    the binary exponent of |K|_1, so |S|_1 < 1 and no power overflows, while
    each S**p, from p_max dense products, is (K^T)**p scaled by 2**(-e p),
    exactly but for entries that fall under 2**-1022.
    """
    d = system.d
    n = d * d
    with np.errstate(over="ignore", invalid="ignore"):
        units = np.eye(n).reshape(n, d, d)
        rows = second_moment_map(system, "continuous")(units).reshape(n, n)
        e = math.frexp(float(np.abs(rows).sum(axis=1).max()))[1]
        powers = np.empty((_P_MAX + 1, n, n), dtype=rows.dtype)
        # ldexp on the float view scales real and imaginary parts alike
        powers[0] = np.ldexp(rows.view(np.float64), -e).view(rows.dtype)
        for p in range(1, _P_MAX + 1):
            np.matmul(powers[p - 1], powers[0], out=powers[p])
    return powers, e


def _exact_norms(powers: tuple[np.ndarray, int]) -> np.ndarray:
    """|X**p|_1 for p = 2..p_max + 1, read off the (stack, e) of :func:`_generator_powers`.

    |X**p|_1 is the largest column sum of |K**p|, so 2**(e p) times the
    largest row sum of |S**p|: the norms of the unscaled powers bit for bit,
    and inf where those overflow.
    """
    stack, e = powers
    with np.errstate(over="ignore"):
        return np.ldexp(np.abs(stack[1:]).sum(axis=2).max(axis=1), e * np.arange(2, _P_MAX + 2))


def _estimated_norms(system: SystemSpec) -> np.ndarray:
    """Lower estimates of |X**p|_1 for p = 2..p_max + 1, X the generator of ``system``.

    One :func:`_normest` per power, started from the all-ones matrix and a
    +/-1 checkerboard (no random draws, so reruns are identical), both
    scaled to unit 1-norm; their images X**p start are one chain of
    p_max + 1 applications, shared by all the powers.
    """
    d = system.d
    forward = second_moment_map(system, "continuous")
    backward = adjoint_moment_map(system, "continuous")
    start = np.ones((2, d, d), dtype=np.complex128) / d ** 2
    start[1, :, 1::2] *= -1.0
    start[1, 1::2, :] *= -1.0
    with np.errstate(over="ignore", invalid="ignore"):
        images = [forward(start)]
        for _ in range(_P_MAX):
            images.append(forward(images[-1]))
        return np.array([_normest(forward, backward, p, images[p - 1])
                         for p in range(2, _P_MAX + 2)])


def _alpha_by_degree(norms: np.ndarray, beta: float) -> np.ndarray:
    """The unit-time alpha each tabulated degree m may use, from the power norms.

    ``norms`` holds |X**p|_1 for p = 2..p_max + 1 (:func:`_exact_norms` or
    :func:`_estimated_norms`);
    alpha_p = max(d_p, d_(p+1)) with d_p = |X**p|_1**(1/p), clamped at beta;
    degree m takes the least alpha_p over the p <= p_max with p(p - 1) - 1 <= m
    (Al-Mohy and Higham, Theorem 4.2 and Code Fragment 3.1).
    """
    powers = np.arange(2, _P_MAX + 2)
    with np.errstate(over="ignore", invalid="ignore"):
        roots = norms ** (1.0 / powers)
    alpha = np.fmin(np.maximum(roots[:-1], roots[1:]), beta)
    allowed = (powers[:-1] * (powers[:-1] - 1) - 1)[:, None] <= _DEGREES
    return np.where(allowed, alpha[:, None], np.inf).min(axis=0)


def _plan(gaps: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Degree m and substep count s for each grid gap h: the tabulated m minimising m s.

    s = max(ceil(h alpha_m/theta_m), 1), with ``alpha`` the unit-time alpha
    per degree, one for all gaps; ties go to the least m, and a zero gap
    takes no substeps.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.maximum(np.ceil(gaps[:, None] * alpha / _THETAS), 1.0) * (gaps[:, None] > 0)
    pick = np.argmin(_DEGREES * steps, axis=1)
    return _DEGREES[pick], steps[np.arange(len(gaps)), pick]


def _substeps_on_map(apply, x: np.ndarray, tau: float, degree: int, steps: int,
                     growth: float) -> np.ndarray:
    """``steps`` substeps x <- growth sum_{j<=degree} (tau X)^j x/j! by ``apply``, X's map.

    Each term is one map application, and a substep's series stops early
    once two consecutive terms fall under 2**-53 of the sum.
    """
    for _ in range(steps):
        term, series = x, x.copy()
        last = total = float(np.abs(term).sum())
        for j in range(1, degree + 1):
            term = (tau / j) * apply(term)
            series += term
            size = float(np.abs(term).sum())
            total += size
            # |series|_1 <= total, so the test can pass only when this one does
            if last + size <= _UNIT_ROUNDOFF * total and (
                    last + size <= _UNIT_ROUNDOFF * float(np.abs(series).sum())):
                break
            last = size
        x = growth * series
    return x


def _substeps_on_powers(powers: tuple[np.ndarray, int], x: np.ndarray, tau: float,
                        degree: int, steps: int, growth: float) -> np.ndarray:
    """``steps`` substeps x <- growth sum_{j<=degree} (tau^j/j!) x (K^T)^j, x the flat V.

    ``powers`` is the (stack, e) of :func:`_generator_powers`, S**1..S**q with
    q = p_max + 1 and S = 2**-e K^T, so the coefficients (2**e tau)^j/j!
    carry the scale.  Paterson and Stockmeyer (SIAM J. Comput. 2(1), 1973):
    with j = q k + i, the polynomial is sum_k b_k S^(q k), b_k = sum_{i<q}
    c_(q k + i) x S^i, so one stacked product forms the basis x S^i, one
    product of the coefficient blocks with it every b_k, and
    ceil((degree + 1)/q) - 1 Horner steps y <- y S^q + b_k finish the sum.
    """
    stack, e = powers
    q = len(stack)
    blocks = -(-(degree + 1) // q)
    width = min(degree + 1, q)
    coeffs = np.zeros(blocks * q)
    coeffs[0] = 1.0
    coeffs[1:degree + 1] = np.cumprod(math.ldexp(tau, e) / np.arange(1, degree + 1))
    coeffs = coeffs.reshape(blocks, q)[:, :width]
    basis = np.empty((width, x.size), dtype=np.result_type(x, stack))
    for _ in range(steps):
        basis[0] = x
        np.matmul(x, stack[:width - 1], out=basis[1:])
        parts = coeffs @ basis
        x = parts[-1]
        for part in parts[-2::-1]:
            x = x @ stack[-1] + part
        x = growth * x
    return x


def _taylor_plan(spec: SystemSpec, mu: float, beta: float,
                 gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray, str | None]:
    """Degree and substep count per grid gap from beta alone, and the power norms to take.

    The norms are ``"exact"`` at d <= 8, where (p_max + 1) d**2 is within
    :data:`_NORMEST_APPLICATIONS`, ``"estimated"`` above, or None where no
    gap passes the trigger of :func:`_taylor_on_grid`.  The plan's map
    applications, plus :data:`_NORMEST_APPLICATIONS` when norms are taken,
    are priced by :func:`_check_work`; nothing here builds a map.
    """
    exact = (_P_MAX + 1) * spec.d ** 2 <= _NORMEST_APPLICATIONS
    with np.errstate(over="ignore", invalid="ignore"):
        take = bool((gaps * beta > (_THETA[_M_MAX] if exact else _ESTIMATE_ABOVE)).any())
        degrees, substeps = _plan(gaps, np.full(len(_THETAS), beta))
        # mu out of range puts beta out of range, and with it this count: refused below
        applications = float(degrees @ substeps) + take * _NORMEST_APPLICATIONS
    _check_work(spec, "Taylor propagation", applications, f" (beta = {beta:.3g}, mu = {mu:.3g})")
    return degrees, substeps, ("exact" if exact else "estimated") if take else None


def _taylor_on_grid(spec: SystemSpec, v0: np.ndarray, t_grid: np.ndarray) -> list[np.ndarray]:
    """``e^(tL) V0`` at each grid time, by Al-Mohy and Higham's Algorithm 3.2.

    Shifted by mu (:func:`_shift`), each grid gap h takes s substeps
    tau = h/s of e^(mu tau) sum_{j<=m} (tau (L - mu))^j/j!, with the degree
    m <= 55 and s chosen by :func:`_plan` to minimise m s.  The plan uses
    alpha = h beta, unless some gap has h beta over theta_55 at d <= 8 (beta
    alone needs a second substep) or over 63.4 above: then every gap takes
    alpha = h min_p max(d_p, d_(p+1)), d_p = |(C - mu I)^p|_1^(1/p) taken
    once per call, exact at d <= 8 and estimated above (:func:`_taylor_plan`,
    :func:`_alpha_by_degree`).  That alpha is at most h beta, so no gap's
    plan grows.  Where the exact norms are taken, each substep sums its whole
    polynomial on the flat V with the powers of K they were read off
    (:func:`_substeps_on_powers`); elsewhere each term is a map application,
    and a substep's series stops early once two consecutive terms fall under
    2**-53 of the sum (:func:`_substeps_on_map`).
    Each grid time's V is checked for overflow.  Over :data:`kronsum._MAX_MAP_WORK`
    in all, or with mu or beta not finite, it is a ``ValueError`` before
    any map is built.
    """
    mu, shifted, beta = _shift(spec)
    gaps = np.diff(t_grid, prepend=0.0)
    degrees, substeps, source = _taylor_plan(spec, mu, beta, gaps)
    system = SystemSpec(shifted, spec.noise_mats)
    if source == "exact":
        powers = _generator_powers(system)
        norms, cur, advance = _exact_norms(powers), v0.ravel(), partial(_substeps_on_powers, powers)
    else:
        norms = _estimated_norms(system) if source else None
        cur, advance = v0, partial(_substeps_on_map, second_moment_map(system, "continuous"))
    if source:
        degrees, substeps = _plan(gaps, _alpha_by_degree(norms, beta))
    values = []
    for t, gap, degree, steps in zip(t_grid, gaps, degrees, substeps.astype(int)):
        tau = gap / max(steps, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            cur = advance(cur, tau, degree, steps, np.exp(mu * tau))
        values.append(_finite(cur.reshape(v0.shape), f"covariance propagation before t={t}"))
    return values


def _check_time_grid(t_grid) -> np.ndarray:
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError(f"t_grid must be finite, got {t_grid.tolist()}")
    if t_grid[0] < 0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing and nonnegative")
    return t_grid


def propagate_continuous(
    spec: SystemSpec, u, v, t_grid, route: str = "kronecker"
) -> CovarianceTrajectory:
    """Covariance trajectory V(t) on a time grid from V(0) = u v*.

    ``route="kronecker"`` evaluates the matrix exponential of the continuous
    stochastic Kronecker sum at each grid time, in real Hermitian
    coordinates: V(0) = H_1 + i H_2 becomes the two real columns of
    :func:`real_vec`, e^(tR) with R = :func:`kronsum.build_continuous_sum`
    (real, with the spectrum of C) multiplies them, and :func:`real_unvec`
    maps the result back.  A time t_k = 2**i t_j for an earlier grid time t_j
    (``frexp(t_k/t_j)`` has mantissa 1/2) with |t_j R|_1 > theta_13/2 squares
    e^(t_j R) i times: :func:`matrix_exponential` would scale t_k R down to
    the same t_j R / 2**s and take those squarings after its own s, so the
    result is the same bit for bit.  Below theta_13/2 it would take fewer
    squarings, and each extra one doubles the Pade factor's roundoff, so such
    a t_j seeds nothing.  One exponential is kept at a time, that of the
    latest grid time that can seed a later one, and every other one is
    dropped before the next is formed, so the route holds R, the kept
    exponential and the one in progress: at most 8 matrices of R's size,
    7 when none is kept.  The squarings of the kept one leave it intact.
    ``route="ode"`` sums the Taylor series of ``e^(tL)`` on d-by-d matrices by
    :func:`_taylor_on_grid`, forming neither C nor its exponential, so it runs at any d.
    """
    if route not in ("ode", "kronecker"):
        raise ValueError(f"route must be 'ode' or 'kronecker', got {route!r}")
    t_grid = _check_time_grid(t_grid)
    u, v, same = _initial_outer(spec, u, v)
    v0 = _initial_covariance(u, v)
    if route == "kronecker":
        rmat = build_continuous_sum(spec)
        x0 = real_vec(v0)
        values = []
        # the latest grid time that can seed a later one, and its exponential
        kept_t, kept = 0.0, None
        mantissas = [math.frexp(t)[0] for t in t_grid]
        later = Counter(mantissas)
        rnorm = float(np.linalg.norm(rmat, 1))
        for t, mantissa in zip(t_grid.tolist(), mantissas):
            later[mantissa] -= 1
            ratio = t / kept_t if kept_t else 0.0
            if ratio > 1 and math.frexp(ratio)[0] == 0.5:
                with np.errstate(over="ignore", invalid="ignore"):
                    expo = _squared(kept @ kept, math.frexp(ratio)[1] - 2)
                expo = _finite(expo, f"matrix exponential at t={t}")
            else:
                expo = matrix_exponential(rmat, t)
            if later[mantissa] and t * rnorm > _THETA_13 / 2:
                kept_t, kept = t, expo
            with np.errstate(over="ignore", invalid="ignore"):
                value = real_unvec(expo @ x0, spec.d)
            # dropped before the next is formed, unless it is the kept one
            del expo
            values.append(_finite(value, f"covariance propagation at t={t}"))
    else:
        values = _taylor_on_grid(spec, v0, t_grid)
    return _traj("continuous", t_grid.tolist(), values, same)


def max_relative_discrepancy(a: CovarianceTrajectory, b: CovarianceTrajectory) -> float:
    """Largest per-index relative gap between two trajectories on the same grid.

    At each index the largest entry modulus of the difference is divided by
    the larger of the two trajectories' largest entry moduli, at least 1e-300.
    Indices are taken in blocks of about 2**16 entries, each in one pass, so
    the temporaries stay near a megabyte however long the trajectories are.
    """
    if a.mode != b.mode or len(a.values) != len(b.values):
        raise ValueError("trajectories are not comparable")
    if not np.allclose(np.asarray(a.index, float), np.asarray(b.index, float)):
        raise ValueError("trajectories use different grids")
    worst = 0.0
    block = max(1, 2 ** 16 // math.prod(a.values.shape[1:]))
    for lo in range(0, len(a.values), block):
        va, vb = a.values[lo:lo + block], b.values[lo:lo + block]
        scale = np.maximum(np.maximum(np.abs(va).max(axis=(1, 2)),
                                      np.abs(vb).max(axis=(1, 2))), 1e-300)
        worst = max(worst, float((np.abs(va - vb).max(axis=(1, 2)) / scale).max()))
    return worst


def exact_covariance(spec: SystemSpec, mode: str, u, v, horizon) -> np.ndarray:
    """V at the horizon alone, from V(0) = u v*: the value Monte Carlo checks.

    Discrete mode runs the one-step recursion to a whole step count (see
    :func:`propagate_discrete`), holding one matrix at a time, so it has no
    trajectory budget, only the recursion's work budget.  Continuous mode
    takes the Taylor route of :func:`propagate_continuous` to the time
    ``horizon``; neither forms D or C.
    """
    if _check_mode(mode) == "continuous":
        return propagate_continuous(spec, u, v, [horizon], route="ode").values[0]
    n = _whole_steps(horizon)
    u, v, _ = _initial_outer(spec, u, v)
    value = _initial_covariance(u, v)
    for value in _recursion(spec, value, n):
        pass
    return value
